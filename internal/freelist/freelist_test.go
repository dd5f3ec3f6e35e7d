package freelist

import (
	"sync"
	"testing"
)

func TestListReturnsWhatWasPut(t *testing.T) {
	var l List[*int]
	if x, ok := l.Get(); ok || x != nil {
		t.Fatalf("empty list gave %v, %v", x, ok)
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if x, _ := l.Get(); x != b {
		t.Fatal("Get is not last-in first-out")
	}
	if x, _ := l.Get(); x != a {
		t.Fatal("second Get lost the first value")
	}
	if _, ok := l.Get(); ok {
		t.Fatal("list not empty after taking both values")
	}
}

// A steady state of Get and Put allocates nothing, also under the race
// detector, which drops sync.Pool items at random but not a List's.
func TestListSteadyStateAllocatesNothing(t *testing.T) {
	var l List[*[64]byte]
	cycle := func() {
		x, ok := l.Get()
		if !ok {
			x = new([64]byte)
		}
		x[0]++
		l.Put(x)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("%.0f allocs per Get/Put cycle, want 0", a)
	}
}

func TestListConcurrentUse(t *testing.T) {
	var l List[*int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x, ok := l.Get()
				if !ok {
					x = new(int)
				}
				*x++
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	total := 0
	for {
		x, ok := l.Get()
		if !ok {
			break
		}
		total += *x
	}
	if total != 8000 {
		t.Fatalf("kept values count %d uses, want 8000", total)
	}
}
