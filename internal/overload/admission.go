package overload

import (
	"context"
	"errors"
	"sync"
	"time"

	"hslb/internal/clock"
)

// Admission rejection reasons.
var (
	// ErrSaturated means the wait queue is already at capacity; the
	// request is shed immediately instead of buffered.
	ErrSaturated = errors.New("overload: admission queue full")
	// ErrDeadline means the request's deadline cannot be met — it expired
	// while queued, or the estimated queue wait plus one solve already
	// exceeds the remaining budget, so admitting it would only burn a core
	// computing an answer nobody is waiting for.
	ErrDeadline = errors.New("overload: deadline cannot be met")
)

// AdmissionConfig tunes an Admission controller.
type AdmissionConfig struct {
	// MaxConcurrent is the number of solver slots (default 4).
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot beyond
	// MaxConcurrent (default 4 × MaxConcurrent).
	MaxQueue int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	return c
}

// AdmissionStats is a snapshot of the admission counters.
type AdmissionStats struct {
	Admitted      uint64 `json:"admitted"`
	ShedSaturated uint64 `json:"shed_saturated"`
	ShedDeadline  uint64 `json:"shed_deadline"`
	QueueLen      int    `json:"queue_len"`
	MaxQueue      int    `json:"max_queue"`
}

// Admission is a deadline-aware bounded admission queue in front of the
// solver slots. At most MaxConcurrent acquisitions are outstanding; at most
// MaxQueue callers wait for a slot; everything beyond that is shed
// immediately with ErrSaturated, and callers whose context deadline cannot
// be met given the estimated queue wait are shed with ErrDeadline rather
// than admitted to compute an answer that will arrive too late.
type Admission struct {
	cfg   AdmissionConfig
	slots chan struct{}
	lat   *EWMA

	mu      sync.Mutex
	waiters int
	stats   AdmissionStats
}

// NewAdmission returns an idle controller with all slots free.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg = cfg.withDefaults()
	a := &Admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxConcurrent),
		lat:   NewEWMA(DefaultEWMAAlpha),
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// Acquire claims a solver slot, waiting in the bounded queue when all are
// busy. On success it returns a release function that must be called
// exactly once. On failure it returns ErrSaturated or ErrDeadline. ctx's
// deadline is read on the clock that set it (clock.Of).
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a slot is free right now.
	select {
	case <-a.slots:
		a.mu.Lock()
		a.stats.Admitted++
		a.mu.Unlock()
		return a.release, nil
	default:
	}
	a.mu.Lock()
	if a.waiters >= a.cfg.MaxQueue {
		a.stats.ShedSaturated++
		a.mu.Unlock()
		return nil, ErrSaturated
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := a.estimateLocked(a.waiters); est > 0 && clock.Of(ctx).Now().Add(est).After(dl) {
			a.stats.ShedDeadline++
			a.mu.Unlock()
			return nil, ErrDeadline
		}
	}
	a.waiters++
	a.mu.Unlock()
	select {
	case <-a.slots:
		a.mu.Lock()
		a.waiters--
		a.stats.Admitted++
		a.mu.Unlock()
		return a.release, nil
	case <-ctx.Done():
		a.mu.Lock()
		a.waiters--
		a.stats.ShedDeadline++
		a.mu.Unlock()
		return nil, ErrDeadline
	}
}

// Take claims a solver slot outside the admission queue, for work that is
// already accepted (a queued job's attempt): it is neither shed for a full
// queue nor tested against a deadline. A free slot is taken even when ctx
// is already done; otherwise it waits until a slot frees or ctx ends,
// returning ctx's error then. It shares the slots with Acquire, so every
// holder is a busy core to the queue's fast path, deadline test and
// Retry-After. It counts in no admission counter.
func (a *Admission) Take(ctx context.Context) (release func(), err error) {
	select {
	case <-a.slots:
		return a.release, nil
	default:
	}
	select {
	case <-a.slots:
		return a.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *Admission) release() {
	select {
	case a.slots <- struct{}{}:
	default:
		panic("overload: release without matching acquire")
	}
}

// estimateLocked predicts how long a request entering the queue at
// position pos waits plus solves: the queue drains MaxConcurrent requests
// per average solve, and the request then needs one solve of its own.
// Returns 0 (no estimate, admit optimistically) before any observation.
func (a *Admission) estimateLocked(pos int) time.Duration {
	avg := a.lat.Value()
	if avg <= 0 {
		return 0
	}
	drain := float64(pos+1) / float64(a.cfg.MaxConcurrent)
	return time.Duration((drain + 1) * float64(avg))
}

// Observe folds one completed solve latency into the wait-time model.
func (a *Admission) Observe(d time.Duration) { a.lat.Observe(d) }

// AvgLatency is the EWMA of observed solve latencies (0 before the first).
func (a *Admission) AvgLatency() time.Duration { return a.lat.Value() }

// RetryAfter estimates when a freshly shed client could plausibly be
// served: the time for the current queue to drain plus one solve. Callers
// putting it in a Retry-After header should round up to whole seconds;
// the raw value suits millisecond-resolution backoff. Defaults to one
// second before any latency has been observed.
func (a *Admission) RetryAfter() time.Duration {
	a.mu.Lock()
	est := a.estimateLocked(a.waiters)
	a.mu.Unlock()
	if est <= 0 {
		return time.Second
	}
	return est
}

// QueueLen returns how many requests are waiting for a slot.
func (a *Admission) QueueLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiters
}

// Saturated reports whether the wait queue is at capacity — the next
// arrival would be shed.
func (a *Admission) Saturated() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiters >= a.cfg.MaxQueue
}

// Stats returns a snapshot of the admission counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.QueueLen = a.waiters
	st.MaxQueue = a.cfg.MaxQueue
	return st
}
