package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// searchParams names each kind's /search query parameters, in Args order.
var searchParams = [serve.NumKinds][]string{
	serve.KindMembership: {"key"},
	serve.KindPointLoc:   {"x", "y"},
	serve.KindInterval:   {"lo", "hi"},
	serve.KindLinePoly:   {"x", "y"},
	serve.KindTangent:    {"dx", "dy", "dz"},
}

// spanHeader carries the client span's ID to the server-side handler span
// in traced runs.
const spanHeader = "X-Perfbench-Span"

// httpServer is a loopback HTTP server around one handler.
type httpServer struct {
	srv  *http.Server
	base string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for its accept loop to exit.
func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// httpClient is one client holding at most one keep-alive connection.
type httpClient struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{base: base, tr: tr, c: &http.Client{Transport: tr}}
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

// searchResult is the part of the /search response an answer check needs.
type searchResult struct {
	Found    bool  `json:"found"`
	Value    int64 `json:"value"`
	Aux      int64 `json:"aux"`
	Steps    int32 `json:"steps"`
	Degraded bool  `json:"degraded"`
}

// search sends one GET /search?kind= and maps the response back onto the
// serve layer's result and errors: 429 is serve.ErrOverloaded, 504
// serve.ErrBudgetExhausted.
func (c *httpClient) search(ctx context.Context, k serve.Kind, a serve.Args, spanID int64) (serve.Result, error) {
	var url strings.Builder
	url.WriteString(c.base)
	url.WriteString("/search?kind=")
	url.WriteString(k.String())
	for i, name := range searchParams[k] {
		url.WriteByte('&')
		url.WriteString(name)
		url.WriteByte('=')
		url.WriteString(strconv.FormatInt(a[i], 10))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url.String(), nil)
	if err != nil {
		return serve.Result{}, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return serve.Result{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return serve.Result{}, fmt.Errorf("reading /search response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return serve.Result{}, serve.ErrOverloaded
	case http.StatusGatewayTimeout:
		return serve.Result{}, serve.ErrBudgetExhausted
	default:
		return serve.Result{}, fmt.Errorf("/search: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var r searchResult
	if err := json.Unmarshal(body, &r); err != nil {
		return serve.Result{}, fmt.Errorf("decoding /search response: %w", err)
	}
	return serve.Result{Kind: k, Found: r.Found, Value: r.Value, Aux: r.Aux, Steps: r.Steps, Degraded: r.Degraded}, nil
}

// spannedHandler wraps a handler so each request records a server-side span
// whose parent is the client span named in the request header.
func spannedHandler(h http.Handler, sp *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sp.record(sp.id(), parent, "fleet.Handler", t0, time.Now())
	})
}
