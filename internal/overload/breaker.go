package overload

import (
	"math/rand"
	"sync"
	"time"

	"hslb/internal/clock"
)

// State is a circuit breaker's position.
type State int32

// Breaker states.
const (
	// Closed passes every request through; consecutive failures are
	// counted and trip the breaker at the configured threshold.
	Closed State = iota
	// Open short-circuits every request until the cooldown elapses.
	Open
	// HalfOpen lets a random fraction of requests probe the solver;
	// enough successes close the breaker, one failure re-opens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. The zero value gets sane defaults.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting
	// half-open probes (default 10s).
	Cooldown time.Duration
	// ProbeFraction is the fraction of half-open requests allowed through
	// as probes; the rest stay short-circuited so a recovering solver is
	// not instantly re-buried (default 0.25).
	ProbeFraction float64
	// Recovery is the number of half-open probe successes that close the
	// breaker again (default 2).
	Recovery int
	// Clock times the cooldown (nil = clock.Wall).
	Clock clock.Clock
	// Rand overrides the probe coin flip with a [0,1) source, for
	// deterministic tests (default math/rand.Float64).
	Rand func() float64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.ProbeFraction <= 0 || c.ProbeFraction > 1 {
		c.ProbeFraction = 0.25
	}
	if c.Recovery <= 0 {
		c.Recovery = 2
	}
	c.Clock = clock.Or(c.Clock)
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker around the solver.
// Callers ask Allow before invoking the solver and Record the outcome of
// every invocation that actually ran. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       State
	consecFails int
	openedAt    time.Time
	probeSucc   int
	trips       uint64
	rejected    uint64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may invoke the solver right now. An open
// breaker whose cooldown has elapsed transitions to half-open and then
// admits a ProbeFraction of callers as probes.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Clock.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejected++
			return false
		}
		b.state = HalfOpen
		b.probeSucc = 0
	}
	// Half-open: flip the probe coin.
	if b.cfg.Rand() < b.cfg.ProbeFraction {
		return true
	}
	b.rejected++
	return false
}

// Record reports the outcome of a solver invocation that Allow admitted.
// Late results from invocations that started before a trip are ignored
// while the breaker is open — the cooldown timer owns recovery.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if success {
			b.consecFails = 0
			return
		}
		b.consecFails++
		if b.consecFails >= b.cfg.Threshold {
			b.tripLocked()
		}
	case HalfOpen:
		if !success {
			b.tripLocked()
			return
		}
		b.probeSucc++
		if b.probeSucc >= b.cfg.Recovery {
			b.state = Closed
			b.consecFails = 0
		}
	case Open:
	}
}

func (b *Breaker) tripLocked() {
	b.state = Open
	b.openedAt = b.cfg.Clock.Now()
	b.consecFails = 0
	b.probeSucc = 0
	b.trips++
}

// State returns the breaker's current position. An open breaker whose
// cooldown has elapsed still reports Open until the next Allow observes
// the transition.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats is a snapshot of the breaker counters.
type BreakerStats struct {
	State    string `json:"state"`
	Trips    uint64 `json:"trips"`
	Rejected uint64 `json:"rejected"`
}

// Stats returns a snapshot of the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{State: b.state.String(), Trips: b.trips, Rejected: b.rejected}
}
