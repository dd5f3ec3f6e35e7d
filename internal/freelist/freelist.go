// Package freelist keeps scratch values for reuse across calls. A hot path
// that needs a value for the length of one call takes it from a List and
// puts it back when done, so it allocates only while more calls are in
// flight at once than ever before.
//
// Unlike sync.Pool, a List never drops what it keeps: a steady state that
// allocates nothing does so under the race detector and across garbage
// collections too, which is what lets allocation pins hold exactly.
package freelist

import "sync"

// List is a stack of kept values under a mutex. It holds at most as many
// values as were ever out at once. The zero value is empty and ready to
// use; a List must not be copied after first use.
type List[T any] struct {
	mu   sync.Mutex
	kept []T
}

// Get takes a kept value. ok is false, and x the zero value, when the list
// is empty: the caller makes a new one.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.kept); n > 0 {
		x, ok = l.kept[n-1], true
		var zero T
		l.kept[n-1] = zero
		l.kept = l.kept[:n-1]
	}
	l.mu.Unlock()
	return x, ok
}

// Put keeps x for a later Get. The caller must not use x afterwards.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	l.kept = append(l.kept, x)
	l.mu.Unlock()
}
