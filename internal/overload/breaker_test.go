package overload

import (
	"testing"
	"time"

	"hslb/internal/clock"
)

func newFakeClock() *clock.Fake { return clock.NewFake(time.Unix(1_700_000_000, 0)) }
func always() float64           { return 0 } // every half-open coin flip admits a probe
func never() float64            { return 1 } // no half-open coin flip admits a probe
func testBreaker(clk *clock.Fake, r func() float64, threshold, recovery int) *Breaker {
	return NewBreaker(BreakerConfig{
		Threshold: threshold,
		Cooldown:  10 * time.Second,
		Recovery:  recovery,
		Clock:     clk,
		Rand:      r,
	})
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, always, 3, 2)
	if b.State() != Closed {
		t.Fatalf("initial state = %v, want closed", b.State())
	}
	// Interleaved successes reset the consecutive counter: no trip.
	for i := 0; i < 10; i++ {
		b.Record(false)
		b.Record(false)
		b.Record(true)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v after interleaved failures, want closed", b.State())
	}
	b.Record(false)
	b.Record(false)
	if b.State() != Closed {
		t.Fatalf("tripped one failure early")
	}
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state = %v after 3 consecutive failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if st := b.Stats(); st.Trips != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 trip and 1 rejection", st)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, always, 3, 2)
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	// Inside the cooldown: still short-circuiting.
	clk.Advance(9 * time.Second)
	if b.Allow() {
		t.Fatal("admitted a request 1s before the cooldown elapsed")
	}
	// Cooldown elapsed: half-open, probes flow (Rand=always).
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected a probe despite Rand admitting all")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// One success is not enough to close (Recovery = 2) …
	b.Record(true)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v after 1 of 2 recovery successes", b.State())
	}
	// … two are.
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state = %v after 2 recovery successes, want closed", b.State())
	}
	// And the failure counter starts fresh after recovery.
	b.Record(false)
	b.Record(false)
	if b.State() != Closed {
		t.Fatalf("state = %v, stale failure count survived recovery", b.State())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, always, 3, 2)
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	clk.Advance(11 * time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	// The cooldown restarts from the re-trip, not the original one.
	clk.Advance(9 * time.Second)
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request before its fresh cooldown elapsed")
	}
	if st := b.Stats(); st.Trips != 2 {
		t.Fatalf("trips = %d, want 2", st.Trips)
	}
}

func TestBreakerProbeFractionGates(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, never, 3, 2)
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	clk.Advance(11 * time.Second)
	if b.Allow() {
		t.Fatal("half-open breaker admitted a probe despite Rand rejecting all")
	}
	// The transition to half-open happened even though the coin said no.
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
}

func TestBreakerIgnoresLateResultsWhileOpen(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, always, 3, 1)
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	// A solve that was in flight when the breaker tripped reports late:
	// it must not close (or otherwise disturb) the open breaker.
	b.Record(true)
	if b.State() != Open {
		t.Fatalf("state = %v, late success disturbed an open breaker", b.State())
	}
}
