package solvecache

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Group coalesces concurrent calls with the same key into a single
// execution of fn; every caller receives the one result. It is the
// de-duplication layer in front of the cache: N identical /solve requests
// arriving together run the MINLP solver once, not N times.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
	// dups counts the callers that joined this flight instead of running
	// fn (see Joined); it is written under Group.mu.
	dups int
	// panicked carries the panic value (wrapped with its stack) when fn
	// panicked; goexit records that fn called runtime.Goexit. Either way
	// the abnormal exit is re-propagated to every waiter — before this
	// existed, an fn that never returned normally also never released the
	// key, and every later caller for it blocked forever on wg.Wait.
	panicked *panicError
	goexit   bool
}

// panicError wraps a panic value recovered from fn so waiters see both the
// original value and the stack of the goroutine that actually panicked.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("solvecache: singleflight call panicked: %v\n\n%s", e.value, e.stack)
}

// Do executes fn once per key among concurrent callers. shared reports
// whether the result was produced by another in-flight caller. If fn
// panics, the panic is re-raised in the executing caller and in every
// waiter; if fn calls runtime.Goexit, waiters exit too. In all cases the
// key is released so the next caller runs fn afresh — one bad model must
// cost its own callers, not wedge the key forever.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		switch {
		case c.panicked != nil:
			panic(c.panicked)
		case c.goexit:
			runtime.Goexit()
		}
		return c.val, c.err, true
	}
	c := &call[V]{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	// The cleanup must run no matter how fn exits — normal return, panic,
	// or runtime.Goexit — so it lives in a defer. normalReturn
	// distinguishes Goexit (the deferred recover() returns nil but the
	// line after fn never ran) from a panic.
	normalReturn := false
	defer func() {
		if !normalReturn {
			if r := recover(); r != nil {
				c.panicked = &panicError{value: r, stack: debug.Stack()}
			} else {
				c.goexit = true
			}
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		c.wg.Done()
		if c.panicked != nil {
			panic(c.panicked)
		}
	}()

	c.val, c.err = fn()
	normalReturn = true
	return c.val, c.err, false
}

// Joined returns how many callers have joined key's in-flight call: 0 when
// none is in flight. A test holding a flight open waits on it for the
// callers it expects to coalesce.
func (g *Group[V]) Joined(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.calls[key]; c != nil {
		return c.dups
	}
	return 0
}
