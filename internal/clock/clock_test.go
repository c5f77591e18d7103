package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func fired(c <-chan time.Time) (time.Time, bool) {
	select {
	case at := <-c:
		return at, true
	default:
		return time.Time{}, false
	}
}

func TestFakeTimerFiresOnlyOnAdvance(t *testing.T) {
	f := NewFake(t0)
	tm := f.NewTimer(time.Second)
	f.Advance(999 * time.Millisecond)
	if _, ok := fired(tm.C()); ok {
		t.Fatal("timer fired before its instant")
	}
	f.Advance(time.Millisecond)
	if at, ok := fired(tm.C()); !ok || !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("timer = %v, %v; want it fired at t0+1s", at, ok)
	}
	if got := f.Now().Sub(t0); got != time.Second {
		t.Fatalf("Now = t0+%v, want t0+1s", got)
	}
	if _, ok := fired(f.NewTimer(0).C()); !ok {
		t.Fatal("a timer already due did not fire at once")
	}
	stopped := f.NewTimer(time.Second)
	stopped.Stop()
	f.Advance(time.Hour)
	if _, ok := fired(stopped.C()); ok {
		t.Fatal("a stopped timer fired")
	}
}

// Advance fires what it passes in time order, whatever the arming order.
func TestFakeAdvanceFiresInTimeOrder(t *testing.T) {
	f := NewFake(t0)
	var order []time.Duration
	for _, d := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
		d := d
		f.arm(t0.Add(d), 0, func() { order = append(order, d) })
	}
	f.Advance(time.Minute)
	if len(order) != 3 || order[0] != time.Second || order[1] != 2*time.Second || order[2] != 3*time.Second {
		t.Fatalf("fired in order %v, want 1s 2s 3s", order)
	}
	if !f.Now().Equal(t0.Add(time.Minute)) {
		t.Fatalf("Now = %v after Advance(1m)", f.Now())
	}
}

func TestFakeTickerDropsUntakenTicks(t *testing.T) {
	f := NewFake(t0)
	tk := f.NewTicker(time.Second)
	f.Advance(5 * time.Second)
	if at, ok := fired(tk.C()); !ok || !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("first tick = %v, %v; want t0+1s", at, ok)
	}
	if _, ok := fired(tk.C()); ok {
		t.Fatal("a receiver that took nothing got more than one tick")
	}
	f.Advance(time.Second)
	if at, ok := fired(tk.C()); !ok || !at.Equal(t0.Add(6*time.Second)) {
		t.Fatalf("next tick = %v, %v; want t0+6s, in phase", at, ok)
	}
	tk.Stop()
	f.Advance(time.Minute)
	if _, ok := fired(tk.C()); ok {
		t.Fatal("a stopped ticker ticked")
	}
}

func TestFakeContextEndsAtItsDeadline(t *testing.T) {
	f := NewFake(t0)
	ctx, cancel := f.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(t0.Add(time.Second)) {
		t.Fatalf("Deadline = %v, %v", dl, ok)
	}
	child, cancelChild := f.WithTimeout(ctx, time.Hour)
	defer cancelChild()
	plain, cancelPlain := context.WithCancel(ctx)
	defer cancelPlain()
	if dl, _ := child.Deadline(); !dl.Equal(t0.Add(time.Second)) {
		t.Fatalf("child Deadline = %v, want its parent's earlier t0+1s", dl)
	}
	if Of(child) != f || Of(plain) != f || Of(context.Background()) != Wall {
		t.Fatal("Of does not name the clock a context's deadline is on")
	}
	f.Advance(999 * time.Millisecond)
	if ctx.Err() != nil {
		t.Fatal("context ended before its deadline")
	}
	f.Advance(time.Millisecond)
	<-ctx.Done()
	<-child.Done()
	<-plain.Done()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) || !errors.Is(child.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, child %v; want DeadlineExceeded for both", ctx.Err(), child.Err())
	}

	ctx, cancel = f.WithDeadline(context.Background(), f.Now().Add(time.Second))
	cancel()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("cancelled context Err = %v, want Canceled", ctx.Err())
	}
	if ctx, _ := f.WithTimeout(context.Background(), 0); !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("zero-budget context Err = %v, want DeadlineExceeded at once", ctx.Err())
	}
}

func TestFakeSleepAndBlockUntil(t *testing.T) {
	f := NewFake(t0)
	done := make(chan error, 1)
	go func() { done <- f.Sleep(context.Background(), time.Minute) }()
	f.BlockUntil(1) // the sleeper's deadline is armed
	f.Advance(time.Minute)
	if err := <-done; err != nil {
		t.Fatalf("elapsed sleep = %v, want nil", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- f.Sleep(ctx, time.Hour) }()
	f.BlockUntil(1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep = %v, want Canceled", err)
	}
	if err := f.Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled zero sleep = %v, want Canceled", err)
	}
}

func TestWallSleep(t *testing.T) {
	if err := Wall.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("elapsed sleep = %v, want nil", err)
	}
	if err := Wall.Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Wall.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep = %v, want Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if err := Wall.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep cancelled mid-wait = %v, want Canceled", err)
	}
}

// The wall path costs what the time and context calls cost, not one
// allocation more.
func TestWallAllocatesNothingExtra(t *testing.T) {
	for _, c := range []struct {
		name       string
		wall, bare func()
	}{
		{"WithTimeout", func() { _, cancel := Wall.WithTimeout(context.Background(), time.Hour); cancel() },
			func() { _, cancel := context.WithTimeout(context.Background(), time.Hour); cancel() }},
		{"NewTimer", func() { Wall.NewTimer(time.Hour).Stop() }, func() { time.NewTimer(time.Hour).Stop() }},
		{"Now", func() { _ = Wall.Now() }, func() { _ = time.Now() }},
	} {
		if w, b := testing.AllocsPerRun(100, c.wall), testing.AllocsPerRun(100, c.bare); w != b {
			t.Errorf("Wall.%s allocates %v times, the bare call %v", c.name, w, b)
		}
	}
}
