// Package overload provides the service-tier protection primitives behind
// the NEOS-style solve service: a deadline-aware bounded admission queue
// that sheds excess load instead of buffering it, a circuit breaker that
// stops a pathological model class from consuming every solver core, and
// an EWMA latency tracker that turns observed solve times into Retry-After
// hints and queue-wait estimates.
//
// The package mirrors, at the service tier, the per-request degradation
// ladder the pipeline already walks (configured solver → exhaustive
// search): when the full-quality path is unavailable the server
// browns out — cache hits, then cheap rounding answers, then explicit 429
// shedding — rather than converting every request into a timeout.
//
// All primitives take injectable clocks (and, for the breaker's half-open
// probes, an injectable random source) so their state machines are testable
// under a deterministic fake clock.
package overload

import (
	"sync"
	"time"
)

// DefaultEWMAAlpha is the smoothing factor for the latency tracker: each
// observation contributes 30%, so the estimate follows a load shift within
// a handful of solves without whipsawing on a single outlier.
const DefaultEWMAAlpha = 0.3

// EWMA tracks an exponentially weighted moving average of durations. The
// zero value is unusable; use NewEWMA. Safe for concurrent use.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64 // seconds
	n     uint64
}

// NewEWMA returns a tracker with the given smoothing factor
// (DefaultEWMAAlpha when alpha is outside (0, 1]).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one duration into the average. The first observation seeds
// the average directly.
func (e *EWMA) Observe(d time.Duration) {
	s := d.Seconds()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.value = s
	} else {
		e.value = e.alpha*s + (1-e.alpha)*e.value
	}
	e.n++
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.value * float64(time.Second))
}

// Count returns how many durations have been observed.
func (e *EWMA) Count() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}
