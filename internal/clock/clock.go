// Package clock is the serving stack's one source of time: Wall in
// production, a Fake in tests, where a solve budget, a cooldown, a lease TTL
// or a drain grace is crossed by one Advance instead of waited out.
package clock

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Clock tells the time, arms timers and makes contexts that end on its time.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
	NewTicker(d time.Duration) Timer                  // d > 0
	Sleep(ctx context.Context, d time.Duration) error // d, or ctx.Err() once ctx is done
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
	WithDeadline(ctx context.Context, t time.Time) (context.Context, context.CancelFunc)
}

// Timer delivers the time on C once, or every period (a ticker), until Stop.
type Timer interface {
	C() <-chan time.Time
	Stop()
}

// Wall is the real clock.
var Wall Clock = wall{}

// Or returns c, or Wall when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

type (
	wall       struct{}
	wallTimer  struct{ *time.Timer }
	wallTicker struct{ *time.Ticker }
)

func (wall) Now() time.Time                                     { return time.Now() }
func (wall) NewTimer(d time.Duration) Timer                     { return wallTimer{time.NewTimer(d)} }
func (wall) NewTicker(d time.Duration) Timer                    { return wallTicker{time.NewTicker(d)} }
func (w wall) Sleep(ctx context.Context, d time.Duration) error { return sleep(w, ctx, d) }
func (wall) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}
func (wall) WithDeadline(ctx context.Context, t time.Time) (context.Context, context.CancelFunc) {
	return context.WithDeadline(ctx, t)
}
func (t wallTimer) C() <-chan time.Time  { return t.Timer.C }
func (t wallTimer) Stop()                { t.Timer.Stop() }
func (t wallTicker) C() <-chan time.Time { return t.Ticker.C }

func sleep(c Clock, ctx context.Context, d time.Duration) error {
	t, stop := c.WithTimeout(ctx, d)
	defer stop()
	<-t.Done()
	return ctx.Err()
}

// Fake is a Clock that moves only on Advance (never by itself: that needs
// testing/synctest). Its timers, tickers and contexts stay armed until
// Advance reaches their instant; BlockUntil waits for goroutines to arm them.
type Fake struct {
	mu      sync.Mutex
	armed   sync.Cond
	now     time.Time
	waiters []*waiter // in arming order
}

// waiter is one armed timer, ticker (period > 0) or context deadline (end).
type waiter struct {
	f      *Fake
	at     time.Time
	period time.Duration
	ch     chan time.Time
	end    func()
}

// NewFake returns a Fake reading t.
func NewFake(t time.Time) *Fake {
	f := &Fake{now: t}
	f.armed.L = &f.mu
	return f
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *Fake) Sleep(ctx context.Context, d time.Duration) error { return sleep(f, ctx, d) }
func (f *Fake) NewTimer(d time.Duration) Timer                   { return f.arm(f.Now().Add(d), 0, nil) }
func (f *Fake) NewTicker(d time.Duration) Timer                  { return f.arm(f.Now().Add(d), d, nil) }
func (f *Fake) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return f.WithDeadline(ctx, f.Now().Add(d))
}

// WithDeadline's context ends with DeadlineExceeded when Advance reaches t,
// or the parent's earlier deadline. A plain context.WithCancel child of it
// ends with Canceled (its Cause is DeadlineExceeded).
func (f *Fake) WithDeadline(ctx context.Context, t time.Time) (context.Context, context.CancelFunc) {
	if dl, ok := ctx.Deadline(); ok && dl.Before(t) {
		t = dl
	}
	inner, cancel := context.WithCancelCause(context.WithValue(ctx, fakeKey{}, f))
	w := f.arm(t, 0, func() { cancel(context.DeadlineExceeded) })
	return &fakeCtx{inner, t}, func() { w.Stop(); cancel(context.Canceled) }
}

// Of returns the clock ctx's deadline is on: the Fake that made it, or Wall.
func Of(ctx context.Context) Clock {
	if f, ok := ctx.Value(fakeKey{}).(*Fake); ok {
		return f
	}
	return Wall
}

// BlockUntil returns once at least n timers, tickers or contexts are armed.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.waiters) < n {
		f.armed.Wait()
	}
}

// Advance moves the clock d forward, firing what it passes in time order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := f.now.Add(d)
	for {
		slices.SortStableFunc(f.waiters, func(a, b *waiter) int { return a.at.Compare(b.at) })
		if len(f.waiters) == 0 || f.waiters[0].at.After(end) {
			break
		}
		w := f.waiters[0]
		f.now = w.at
		w.fire()
		if w.period == 0 {
			f.waiters = f.waiters[1:]
		} else if w.at = w.at.Add(w.period); len(w.ch) == cap(w.ch) && !w.at.After(end) {
			w.at = w.at.Add((end.Sub(w.at)/w.period + 1) * w.period) // ticks it would drop
		}
	}
	f.now = end
}

// arm schedules a waiter at at; a timer or context already due fires at once.
func (f *Fake) arm(at time.Time, period time.Duration, end func()) *waiter {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{f: f, at: at, period: period, ch: make(chan time.Time, 1), end: end}
	if !at.After(f.now) && period == 0 {
		w.fire()
		return w
	}
	f.waiters = append(f.waiters, w)
	f.armed.Broadcast()
	return w
}

func (w *waiter) fire() {
	if w.end != nil {
		w.end()
	} else if len(w.ch) == 0 {
		w.ch <- w.at
	}
}

func (w *waiter) C() <-chan time.Time { return w.ch }

func (w *waiter) Stop() {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	w.f.waiters = slices.DeleteFunc(w.f.waiters, func(x *waiter) bool { return x == w })
}

// fakeCtx reports its deadline, and DeadlineExceeded once Advance ended it.
type fakeCtx struct {
	context.Context
	deadline time.Time
}
type fakeKey struct{}

func (c *fakeCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *fakeCtx) Err() error {
	if context.Cause(c.Context) == context.DeadlineExceeded {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}
