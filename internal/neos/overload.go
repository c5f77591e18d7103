package neos

import (
	"context"
	"sync/atomic"
	"time"

	"hslb/internal/ampl"
	"hslb/internal/clock"
	"hslb/internal/overload"
)

// OverloadConfig tunes the service-tier overload protection: admission
// control in front of the sync solve path, a circuit breaker around the
// solver, and the brownout degradation ladder. The protection is always
// on; the zero value takes every default.
type OverloadConfig struct {
	// Enabled is ignored: the protection is always on. The field stays so
	// existing callers keep compiling.
	Enabled bool
	// MaxQueue bounds /solve requests waiting for a solver slot beyond
	// MaxConcurrent; arrivals beyond it walk the brownout ladder and are
	// shed with 429 (default 4 × MaxConcurrent).
	MaxQueue int
	// BreakerThreshold trips the breaker after this many consecutive
	// solver failures — full-budget deadlines or solver errors (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker short-circuits the
	// solver before admitting half-open probes (default 10s).
	BreakerCooldown time.Duration
	// BreakerProbe is the fraction of half-open requests allowed through
	// as probes (default 0.25).
	BreakerProbe float64
	// DegradedTimeout is the wall-clock budget of the brownout rung: a
	// short solve whose rounding/rescue-dive incumbent is served tagged
	// "quality":"degraded" when the full-quality path is unavailable —
	// the service-tier analogue of the pipeline's exhaustive-search rung
	// (default 250ms; <0 disables the rung, shedding directly).
	DegradedTimeout time.Duration
}

func (c OverloadConfig) withDefaults(maxConcurrent int) OverloadConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * maxConcurrent
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.BreakerProbe <= 0 || c.BreakerProbe > 1 {
		c.BreakerProbe = 0.25
	}
	if c.DegradedTimeout == 0 {
		c.DegradedTimeout = 250 * time.Millisecond
	}
	return c
}

// guard is the assembled protection stack. Its /solve counters count
// ladder decisions, one per flight: a herd coalesced on one key is one.
type guard struct {
	cfg OverloadConfig
	adm *overload.Admission
	brk *overload.Breaker
	// degradedSem bounds concurrent brownout solves to max(1,
	// maxConcurrent/2), so the cheap rung cannot itself saturate the cores;
	// acquisition is non-blocking — when the cheap rung is busy too, the
	// request is shed.
	degradedSem chan struct{}

	degraded    atomic.Uint64 // brownout answers served
	shedBreaker atomic.Uint64 // 429s after the breaker short-circuited
	shedQueue   atomic.Uint64 // 429s after queue saturation (brownout rung busy too)
	shedJobs    atomic.Uint64 // 429s from a full job queue
}

func newGuard(cfg OverloadConfig, maxConcurrent int, clk clock.Clock) *guard {
	cfg = cfg.withDefaults(maxConcurrent)
	return &guard{
		cfg: cfg,
		adm: overload.NewAdmission(overload.AdmissionConfig{
			MaxConcurrent: maxConcurrent,
			MaxQueue:      cfg.MaxQueue,
		}),
		brk: overload.NewBreaker(overload.BreakerConfig{
			Threshold:     cfg.BreakerThreshold,
			Cooldown:      cfg.BreakerCooldown,
			ProbeFraction: cfg.BreakerProbe,
			Clock:         clk,
		}),
		degradedSem: make(chan struct{}, max(1, maxConcurrent/2)),
	}
}

// breakerPoll is how long an async worker sleeps before re-checking an
// open breaker: fast enough to notice the half-open transition promptly,
// slow enough not to spin.
func (g *guard) breakerPoll() time.Duration {
	p := g.cfg.BreakerCooldown / 8
	if p < 25*time.Millisecond {
		p = 25 * time.Millisecond
	}
	if p > time.Second {
		p = time.Second
	}
	return p
}

// recordSolve feeds one completed solver invocation into the wait-time
// model and the breaker. Deadlines count as breaker failures only when the
// server's own budget was exhausted: a deadline forced by a short client
// budget says nothing about solver health.
func (g *guard) recordSolve(resp *SolveResponse, elapsed, solveTimeout time.Duration) {
	g.adm.Observe(elapsed)
	switch resp.Status {
	case "error":
		g.brk.Record(false)
	case "deadline":
		if solveTimeout > 0 && elapsed >= solveTimeout {
			g.brk.Record(false)
		}
	default:
		g.brk.Record(true)
	}
}

// shedError is a refused flight or job submission: every caller sharing it
// is shed (the adapter's 429 with Retry-After), the error text as the
// reason.
type shedError string

func (e shedError) Error() string { return string(e) }

// brownout walks the degraded rungs of the ladder once the full-quality
// path is unavailable (breaker open or queue saturated). The cache and the
// peers were already consulted; what remains is the cheap rounding-answer
// rung, then shedding.
func (s *Server) brownout(key string, parsed *ampl.Result, req *SolveRequest, reason string, counter *atomic.Uint64) (*SolveResponse, error) {
	if resp := s.tryDegraded(key, parsed, req); resp != nil {
		return resp, nil
	}
	counter.Add(1)
	return nil, shedError(reason)
}

// tryDegraded runs the brownout rung: a solve under DegradedTimeout whose
// deadline incumbent (produced by the solver's rounding rescue dive when
// the tree search cannot finish) is served tagged "quality":"degraded".
// Returns nil when the rung is disabled, busy, or produced nothing usable.
// A solve that happens to reach a terminal status inside the budget is a
// full-quality answer and is filled like any other.
func (s *Server) tryDegraded(key string, parsed *ampl.Result, req *SolveRequest) *SolveResponse {
	g := s.guard
	if g.cfg.DegradedTimeout < 0 {
		return nil
	}
	select {
	case g.degradedSem <- struct{}{}:
	default:
		return nil
	}
	defer func() { <-g.degradedSem }()
	ctx, cancel := s.cfg.clock.WithTimeout(context.Background(), g.cfg.DegradedTimeout)
	defer cancel()
	resp := solveParsedContext(ctx, parsed, req)
	switch resp.Status {
	case "deadline":
		if resp.Variables == nil {
			return nil
		}
		out := *resp
		out.Quality = "degraded"
		g.degraded.Add(1)
		return &out
	case "error":
		return nil
	default:
		s.fill(key, resp)
		return resp
	}
}

// OverloadMetrics is the /metrics section describing the protection stack.
type OverloadMetrics struct {
	Breaker   overload.BreakerStats   `json:"breaker"`
	Admission overload.AdmissionStats `json:"admission"`
	// ShedBreaker counts flights refused with 429 while the breaker
	// short-circuited the solver and the brownout rung could not help;
	// ShedQueue counts the same for a saturated admission queue.
	ShedBreaker uint64 `json:"shed_breaker"`
	ShedQueue   uint64 `json:"shed_queue"`
	// ShedJobs counts /submit rejections from a full job queue.
	ShedJobs uint64 `json:"shed_jobs"`
	// Degraded counts flights answered "quality":"degraded" by the brownout
	// rung.
	Degraded uint64 `json:"degraded_served"`
	// EWMASolveMs is the latency estimate behind Retry-After hints and
	// deadline-feasibility rejections.
	EWMASolveMs float64 `json:"ewma_solve_ms"`
	// PendingJobs and MaxPendingJobs describe the async queue bound.
	PendingJobs    int `json:"pending_jobs"`
	MaxPendingJobs int `json:"max_pending_jobs"`
}

func (s *Server) overloadMetrics() *OverloadMetrics {
	g := s.guard
	return &OverloadMetrics{
		Breaker:        g.brk.Stats(),
		Admission:      g.adm.Stats(),
		ShedBreaker:    g.shedBreaker.Load(),
		ShedQueue:      g.shedQueue.Load(),
		ShedJobs:       g.shedJobs.Load(),
		Degraded:       g.degraded.Load(),
		EWMASolveMs:    float64(g.adm.AvgLatency()) / float64(time.Millisecond),
		PendingJobs:    s.store.Pending(),
		MaxPendingJobs: s.cfg.MaxPendingJobs,
	}
}
