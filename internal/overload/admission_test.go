package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2})
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r1()
	r2()
	if st := a.Stats(); st.Admitted != 2 || st.ShedSaturated != 0 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdmissionShedsWhenSaturated(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fills the queue.
	waited := make(chan error, 1)
	entered := make(chan struct{})
	go func() {
		go func() {
			// Poll until the waiter is visibly queued, then unblock the test.
			for a.QueueLen() == 0 {
				time.Sleep(time.Millisecond)
			}
			close(entered)
		}()
		rel, err := a.Acquire(context.Background())
		if err == nil {
			rel()
		}
		waited <- err
	}()
	<-entered
	if !a.Saturated() {
		t.Fatal("queue with MaxQueue=1 and one waiter not reported saturated")
	}
	// The next arrival is shed immediately, not buffered.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	hold()
	if err := <-waited; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	if st := a.Stats(); st.ShedSaturated != 1 || st.Admitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdmissionRejectsUnmeetableDeadline(t *testing.T) {
	clk := newFakeClock()
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 8})
	// Teach the EWMA that a solve takes 1s.
	a.Observe(time.Second)

	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	// Empty queue: estimated completion = drain(1 slot ahead)/1 + own solve
	// = 2s. A 500ms budget cannot be met → shed up front.
	ctx, cancel := clk.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// A 10s budget is fine: the request queues, and is shed when its
	// deadline passes while it waits.
	ctx2, cancel2 := clk.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		rel, err := a.Acquire(ctx2)
		if err == nil {
			rel()
		}
		done <- err
	}()
	for a.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(10 * time.Second)
	if err := <-done; !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired waiter returned %v, want ErrDeadline", err)
	}
	if st := a.Stats(); st.ShedDeadline != 2 {
		t.Fatalf("stats = %+v, want 2 deadline sheds", st)
	}
}

func TestAdmissionNoEstimateAdmitsOptimistically(t *testing.T) {
	// Before any latency observation there is no wait model; deadlines are
	// not second-guessed.
	clk := newFakeClock()
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := clk.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		rel, err := a.Acquire(ctx)
		if err == nil {
			rel()
		}
		done <- err
	}()
	for a.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	hold()
	if err := <-done; err != nil {
		t.Fatalf("optimistic admission failed: %v", err)
	}
}

func TestAdmissionRetryAfterGrowsWithQueue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 16})
	if got := a.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter = %v before any observation, want 1s default", got)
	}
	a.Observe(2 * time.Second)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.Acquire(ctx)
			if err == nil {
				rel()
			}
		}()
	}
	for a.QueueLen() < 4 {
		time.Sleep(time.Millisecond)
	}
	// 4 waiters × 2s avg on 1 slot: the hint must reflect the backlog.
	if got := a.RetryAfter(); got < 5*time.Second {
		t.Fatalf("RetryAfter = %v with a 4-deep queue of 2s solves", got)
	}
	cancel()
	wg.Wait()
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("zero-observation value = %v", e.Value())
	}
	e.Observe(100 * time.Millisecond)
	if got := e.Value(); got != 100*time.Millisecond {
		t.Fatalf("first observation must seed the average, got %v", got)
	}
	e.Observe(200 * time.Millisecond)
	if got := e.Value(); got != 150*time.Millisecond {
		t.Fatalf("value = %v, want 150ms", got)
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d", e.Count())
	}
}

// TestTakeSharesSlotsOutsideTheQueue: Take holds one of the Acquire slots,
// so a queued Acquire sees the core busy, but Take itself is never shed and
// gives up only when its context ends.
func TestTakeSharesSlotsOutsideTheQueue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	release, err := a.Take(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Acquire with the only slot taken = %v, want ErrDeadline", err)
	}
	if _, err := a.Take(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Take = %v, want the context's error", err)
	}
	release()
	// A free slot is taken even by an attempt whose context already ended.
	for i := 0; i < 20; i++ {
		r, err := a.Take(ctx)
		if err != nil {
			t.Fatalf("Take of a free slot with a done context = %v, want the slot", err)
		}
		r()
	}
	r, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r()
	if st := a.Stats(); st.Admitted != 1 || st.ShedDeadline != 1 || st.ShedSaturated != 0 {
		t.Fatalf("stats = %+v, want Take outside every counter", st)
	}
}
