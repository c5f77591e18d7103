package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hslb/internal/backoff"
	"hslb/internal/cesm"
	"hslb/internal/clock"
	"hslb/internal/perf"
)

// This file is the resilient gather runner. The paper's campaigns ran on a
// real machine where short jobs crash, hang and emit corrupted timing
// files; one bad run must cost a retry, not the campaign. Each run gets a
// per-attempt timeout and bounded exponential backoff with deterministic
// jitter; runs that exhaust their attempts are dropped and reported, and
// the campaign fails only when a component no longer retains enough
// distinct node counts to fit the Table II model.

// Retry defaults.
const (
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// RetryPolicy bounds the per-run retry loop.
type RetryPolicy struct {
	// MaxAttempts is the number of executions per run including the
	// first (default DefaultMaxAttempts).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry, doubled per
	// attempt (default DefaultBaseBackoff). Jitter in [0.5, 1.5)× is
	// applied, derived deterministically from the campaign seed.
	BaseBackoff time.Duration
	// MaxBackoff caps the grown delay (default DefaultMaxBackoff).
	MaxBackoff time.Duration
	// RunTimeout bounds one attempt's wall-clock via context deadline;
	// 0 disables. Hung runs only resolve through this (or an outer
	// context deadline).
	RunTimeout time.Duration
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = DefaultMaxAttempts
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = DefaultBaseBackoff
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = DefaultMaxBackoff
	}
	return r
}

// MinDistinctCounts is how many distinct node counts per component a
// campaign must retain after drops and outlier rejection — the paper's
// "at least four different node counts" floor for fitting (§III-C).
const MinDistinctCounts = 4

// ErrInsufficientSamples is matched (via errors.Is) by the typed
// *InsufficientSamplesError a campaign returns when failures leave a
// component with too few distinct node counts to fit.
var ErrInsufficientSamples = errors.New("bench: insufficient samples after failures")

// InsufficientSamplesError reports which component fell below the floor.
type InsufficientSamplesError struct {
	Component cesm.Component
	Distinct  int // distinct node counts retained
	Need      int
}

func (e *InsufficientSamplesError) Error() string {
	return fmt.Sprintf("bench: insufficient samples for %v: %d distinct node counts retained, need %d",
		e.Component, e.Distinct, e.Need)
}

// Is lets errors.Is(err, ErrInsufficientSamples) match.
func (e *InsufficientSamplesError) Is(target error) bool { return target == ErrInsufficientSamples }

// errCorruptLog marks a run whose timing log failed to parse or carried
// non-finite times — recoverable by retrying.
var errCorruptLog = errors.New("bench: corrupted timing log")

// FaultEvent is one failed run attempt.
type FaultEvent struct {
	TotalNodes int    `json:"total_nodes"`
	Rep        int    `json:"rep"`
	Attempt    int    `json:"attempt"` // 0-based
	Seed       int64  `json:"seed"`    // the attempt's machine seed
	Kind       string `json:"kind"`    // crash, hang, corrupt, timeout
	Err        string `json:"err"`
}

// DroppedRun is a run that exhausted its attempts and was abandoned.
type DroppedRun struct {
	TotalNodes int    `json:"total_nodes"`
	Rep        int    `json:"rep"`
	Attempts   int    `json:"attempts"`
	LastErr    string `json:"last_err"`
}

// RejectedSample is a gathered sample discarded by MAD outlier rejection.
type RejectedSample struct {
	Component string  `json:"component"`
	Nodes     int     `json:"nodes"`
	Time      float64 `json:"time"`
	// Residual is the relative deviation from the preliminary fit.
	Residual float64 `json:"residual"`
}

// FailureReport summarizes everything that went wrong (and was survived)
// during a campaign: every failed attempt, every abandoned run, every
// rejected sample. A fault-free campaign reports zero events.
type FailureReport struct {
	// Attempts counts run attempts actually executed (excluding resumed
	// runs); Completed counts runs that produced a sample set.
	Attempts  int `json:"attempts"`
	Completed int `json:"completed"`
	// Resumed counts runs replayed from the campaign's incomplete gather
	// document in the result store instead of executed.
	Resumed int `json:"resumed"`
	// Retries counts failed attempts that were retried.
	Retries  int              `json:"retries"`
	Faults   []FaultEvent     `json:"faults,omitempty"`
	Dropped  []DroppedRun     `json:"dropped,omitempty"`
	Rejected []RejectedSample `json:"rejected,omitempty"`
}

// AttemptSeed is the machine seed of one run attempt. Attempt 0
// reproduces the historical per-repeat seeds, so pre-existing campaigns
// replay identically; retries perturb the seed so a deterministic
// injected fault does not recur forever.
func AttemptSeed(base int64, rep, attempt int) int64 {
	return base + int64(rep)*1000003 + int64(attempt)*500009
}

// gatherTask is one planned (total, rep) run, in campaign plan order.
type gatherTask struct {
	total, rep int
	a          cesm.Allocation
	resumed    *gatherEntry // set when the head gather document already has this run
}

// runOutcome is everything one executed task produced. Workers fill these
// in task-locally — no shared state — and RunContext merges them in plan
// order afterwards, which is what makes Data and the FailureReport
// bit-identical for every worker count.
type runOutcome struct {
	tm       *cesm.Timing
	dropped  *DroppedRun
	faults   []FaultEvent
	attempts int
	retries  int
	err      error
}

// RunContext executes the campaign under ctx and returns the gathered
// samples plus a report of every failure survived along the way.
//
// Recoverable failures (injected faults, timeouts, corrupted logs) are
// retried per Retry and, if persistent, drop that single run; the
// campaign aborts only on context cancellation, configuration errors, or
// when a component retains fewer than MinDistinctCounts distinct node
// counts (ErrInsufficientSamples).
//
// Runs execute on a pool of Workers goroutines (see Campaign.Workers).
// Every run is independent — seeds and injected faults are pure functions
// of the plan — so results are merged back in plan order and the returned
// Data and FailureReport do not depend on scheduling.
//
// With Results and CampaignID set, result-store commits are serialized
// through a single writer and stay eager (a run is durable as soon as it
// completes, not when the campaign ends), and a campaign whose head
// gather document is incomplete and of the same plan resumes from it:
// the runs it holds are replayed, not executed.
func (c Campaign) RunContext(ctx context.Context) (*Data, *FailureReport, error) {
	if len(c.NodeCounts) == 0 {
		return nil, nil, ErrNoCounts
	}
	if err := c.Faults.Validate(); err != nil {
		return nil, nil, err
	}
	for _, total := range c.NodeCounts {
		if total < 4 {
			return nil, nil, fmt.Errorf("bench: node count %d too small for a coupled run", total)
		}
	}
	repeats := c.Repeats
	if repeats == 0 {
		repeats = 1
	}
	alloc := c.Allocate
	if alloc == nil {
		alloc = DefaultAllocation
	}
	retry := c.Retry.withDefaults()
	workers := c.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	resume, err := c.resumeEntries(repeats)
	if err != nil {
		return nil, nil, err
	}

	report := &FailureReport{}
	data := &Data{
		Resolution: c.Resolution,
		Layout:     c.Layout,
		Samples:    map[cesm.Component][]perf.Sample{},
	}

	allocs := make(map[int]cesm.Allocation, len(c.NodeCounts))
	for _, total := range c.NodeCounts {
		if _, ok := allocs[total]; !ok {
			allocs[total] = alloc(c.Resolution, c.Layout, total)
		}
	}

	var tasks []gatherTask
	var resumed []gatherEntry
	for _, total := range c.NodeCounts {
		a := allocs[total]
		for rep := 0; rep < repeats; rep++ {
			t := gatherTask{total: total, rep: rep, a: a}
			if e, ok := resume[runKey{total, rep}]; ok {
				t.resumed = &e
				resumed = append(resumed, e)
			}
			tasks = append(tasks, t)
		}
	}

	outcomes := make([]runOutcome, len(tasks))

	// One campaign-internal cancel fans a non-recoverable failure (or a
	// result-store commit error) out to every in-flight run, so the pool
	// drains promptly instead of finishing the whole plan.
	runCtx, cancelRuns := context.WithCancel(ctx)
	defer cancelRuns()

	// All result-store commits funnel through this one goroutine, so the
	// store head is never written concurrently. Every intermediate commit
	// carries the resumed runs too, so a second crash loses none of them.
	var (
		commitCh   chan gatherEntry
		commitDone chan error
	)
	if c.recordsResults() {
		commitCh = make(chan gatherEntry, workers)
		commitDone = make(chan error, 1)
		go func() {
			var werr error
			committed := resumed
			for e := range commitCh {
				if werr != nil {
					continue // drain; first error already cancelled the runs
				}
				committed = append(committed, e)
				if err := c.commitGather(committed, repeats, false); err != nil {
					werr = err
					cancelRuns()
				}
			}
			commitDone <- werr
		}()
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				t := tasks[idx]
				out := c.gatherOne(runCtx, t.total, t.rep, t.a, retry)
				if out.err != nil {
					cancelRuns()
				} else if out.tm != nil && commitCh != nil {
					commitCh <- entryOf(t.total, t.rep, t.a, out.tm)
				}
				outcomes[idx] = out
			}
		}()
	}
	for idx := range tasks {
		if tasks[idx].resumed != nil {
			continue
		}
		// Keep feeding even after a cancel: cancelled workers drain the
		// remaining indices near-instantly (gatherOne returns on ctx.Err),
		// and an unconditional send cannot deadlock against live workers.
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()
	if commitCh != nil {
		close(commitCh)
		if werr := <-commitDone; werr != nil {
			return nil, nil, werr
		}
	}

	// Pick the campaign's error. Tasks aborted by the internal cancel
	// report context.Canceled while the outer ctx is still live; those are
	// victims of some other task's real failure, not the story — skip them
	// and surface the first genuine error in plan order.
	var runErr error
	for i := range outcomes {
		if outcomes[i].err == nil {
			continue
		}
		if ctx.Err() == nil && errors.Is(outcomes[i].err, context.Canceled) {
			continue
		}
		runErr = outcomes[i].err
		break
	}
	if runErr == nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	if runErr != nil {
		return nil, nil, runErr
	}

	// Merge in plan order: byte-for-byte the sequence the sequential
	// runner would have produced.
	for i, t := range tasks {
		if t.resumed != nil {
			replayEntry(data, *t.resumed)
			report.Resumed++
			continue
		}
		out := &outcomes[i]
		report.Attempts += out.attempts
		report.Retries += out.retries
		report.Faults = append(report.Faults, out.faults...)
		if out.dropped != nil {
			report.Dropped = append(report.Dropped, *out.dropped)
			continue
		}
		recordRun(data, t.total, t.a, out.tm)
		report.Completed++
	}

	if c.OutlierK > 0 {
		report.Rejected = data.RejectOutliers(c.OutlierK)
	}
	for _, comp := range cesm.OptimizedComponents {
		distinct := distinctNodeCounts(data.Samples[comp])
		// A campaign deliberately planned with fewer counts (e.g. a
		// 2-point smoke run) is not failed retroactively; the floor is
		// what the plan could have delivered, capped at the paper's 4.
		need := MinDistinctCounts
		if planned := plannedDistinct(allocs, comp); planned < need {
			need = planned
		}
		if distinct < need {
			return nil, report, &InsufficientSamplesError{Component: comp, Distinct: distinct, Need: need}
		}
	}
	for _, comp := range cesm.OptimizedComponents {
		s := data.Samples[comp]
		sort.Slice(s, func(i, j int) bool { return s[i].Nodes < s[j].Nodes })
	}
	if c.recordsResults() {
		// Final commit: every run (resumed and fresh) in plan order, marked
		// complete. Identical reruns of the same plan commit an identical
		// document, which the store records as a no-op.
		var all []gatherEntry
		for i, t := range tasks {
			switch {
			case t.resumed != nil:
				all = append(all, *t.resumed)
			case outcomes[i].tm != nil:
				all = append(all, entryOf(t.total, t.rep, t.a, outcomes[i].tm))
			}
		}
		if err := c.commitGather(all, repeats, true); err != nil {
			return nil, nil, err
		}
	}
	return data, report, nil
}

// gatherOne runs one (total, rep) benchmark with retries. Everything the
// task produced — timing or drop record, fault events, attempt counts, or
// a non-recoverable error — comes back in the outcome; nothing shared is
// touched, so any number of gatherOnes may run concurrently.
func (c Campaign) gatherOne(ctx context.Context, total, rep int, a cesm.Allocation, retry RetryPolicy) runOutcome {
	var out runOutcome
	var lastErr error
	for attempt := 0; attempt < retry.MaxAttempts; attempt++ {
		seed := AttemptSeed(c.Seed, rep, attempt)
		cfg := cesm.Config{
			Resolution: c.Resolution,
			Layout:     c.Layout,
			TotalNodes: total,
			Alloc:      a,
			Seed:       seed,
			Faults:     c.Faults,
		}
		c.truthScaleConfig(&cfg)
		actx := ctx
		cancel := func() {}
		if retry.RunTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, retry.RunTimeout)
		}
		tm, err := c.runOnce(actx, cfg)
		cancel()
		out.attempts++
		if err == nil {
			out.tm = tm
			return out
		}
		if ctx.Err() != nil {
			out.err = ctx.Err()
			return out
		}
		kind, recoverable := classifyRunError(err)
		if !recoverable {
			out.err = fmt.Errorf("bench: run at %d nodes: %w", total, err)
			return out
		}
		lastErr = err
		out.faults = append(out.faults, FaultEvent{
			TotalNodes: total, Rep: rep, Attempt: attempt, Seed: seed,
			Kind: kind, Err: err.Error(),
		})
		if attempt+1 >= retry.MaxAttempts {
			break
		}
		out.retries++
		// Deterministic jitter in [0.5, 1.5) derived from the run identity.
		rng := rand.New(rand.NewSource(c.Seed ^ int64(total)<<32 ^ int64(rep)<<16 ^ int64(attempt)))
		d := backoff.Delay(retry.BaseBackoff, retry.MaxBackoff, attempt)
		if err := clock.Wall.Sleep(ctx, time.Duration(float64(d)*(0.5+rng.Float64()))); err != nil {
			out.err = err
			return out
		}
	}
	out.dropped = &DroppedRun{
		TotalNodes: total, Rep: rep, Attempts: retry.MaxAttempts, LastErr: lastErr.Error(),
	}
	return out
}

// runOnce executes a single attempt. Under a fault plan the run
// round-trips through the CESM timing-log text artifact — the same
// surface a real deployment reads — so injected log corruption shows up
// exactly where it would in production.
func (c Campaign) runOnce(ctx context.Context, cfg cesm.Config) (*cesm.Timing, error) {
	if c.RunLatency > 0 {
		t := time.NewTimer(c.RunLatency)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	if c.Faults == nil {
		return cesm.RunContext(ctx, cfg)
	}
	var buf bytes.Buffer
	if err := cesm.RunToLogContext(ctx, &buf, cfg); err != nil {
		return nil, err
	}
	prof, err := cesm.ParseTimingLog(strings.NewReader(buf.String()))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptLog, err)
	}
	for _, comp := range cesm.OptimizedComponents {
		v := prof.Timing.Comp[comp]
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: %v time %v", errCorruptLog, comp, v)
		}
	}
	tm := prof.Timing
	return &tm, nil
}

// classifyRunError maps an attempt error to a report kind and whether a
// retry could help. Injected faults, timeouts and corrupted logs are
// recoverable; configuration errors are not.
func classifyRunError(err error) (kind string, recoverable bool) {
	var fe *cesm.FaultError
	if errors.As(err, &fe) {
		return fe.Kind.String(), true
	}
	if errors.Is(err, errCorruptLog) {
		return cesm.FaultCorrupt.String(), true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout", true
	}
	return "error", false
}

// recordRun appends one successful run's samples and cost record.
func recordRun(data *Data, total int, a cesm.Allocation, tm *cesm.Timing) {
	for _, comp := range cesm.OptimizedComponents {
		data.Samples[comp] = append(data.Samples[comp], perf.Sample{
			Nodes: a.Get(comp),
			Time:  tm.Comp[comp],
		})
	}
	data.Records = append(data.Records, RunRecord{TotalNodes: total, Total: tm.Total})
	data.Runs++
}

// distinctNodeCounts counts distinct Nodes values among samples.
func distinctNodeCounts(s []perf.Sample) int {
	seen := map[int]bool{}
	for _, smp := range s {
		seen[smp.Nodes] = true
	}
	return len(seen)
}

// plannedDistinct is how many distinct node counts the campaign plan
// would give a component if every run succeeded.
func plannedDistinct(allocs map[int]cesm.Allocation, comp cesm.Component) int {
	seen := map[int]bool{}
	for _, a := range allocs {
		seen[a.Get(comp)] = true
	}
	return len(seen)
}

// RejectOutliers drops samples whose relative residual against a
// preliminary Table II fit deviates from the median residual by more
// than k scaled-MADs (k ≈ 4 recommended). Components with fewer than 6
// samples, or whose preliminary fit fails, are left untouched, and
// rejection never reduces a component below MinDistinctCounts distinct
// node counts (worst offenders go first). The dropped samples are
// returned; Records and Runs are unchanged — the machine time was spent
// regardless.
func (d *Data) RejectOutliers(k float64) []RejectedSample {
	if k <= 0 {
		return nil
	}
	var out []RejectedSample
	for _, comp := range cesm.OptimizedComponents {
		s := d.Samples[comp]
		if len(s) < 6 {
			continue
		}
		fit, err := perf.Fit(s, perf.FitOptions{})
		if err != nil {
			continue
		}
		resid := make([]float64, len(s))
		for i, smp := range s {
			pred := fit.Model.Eval(float64(smp.Nodes))
			if pred <= 0 {
				pred = math.SmallestNonzeroFloat64
			}
			resid[i] = (smp.Time - pred) / pred
		}
		med := median(resid)
		dev := make([]float64, len(resid))
		for i, r := range resid {
			dev[i] = math.Abs(r - med)
		}
		// 1.4826 scales MAD to the normal σ; the floor keeps a
		// too-perfect preliminary fit from flagging ordinary noise.
		scale := 1.4826 * median(dev)
		if scale < 0.002 {
			scale = 0.002
		}
		type cand struct {
			idx int
			dev float64
		}
		var cands []cand
		for i := range s {
			if dev[i] > k*scale {
				cands = append(cands, cand{i, dev[i]})
			}
		}
		if len(cands) == 0 {
			continue
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].dev > cands[j].dev })
		floor := distinctNodeCounts(s)
		if floor > MinDistinctCounts {
			floor = MinDistinctCounts
		}
		drop := map[int]bool{}
		kept := append([]perf.Sample(nil), s...)
		for _, cd := range cands {
			trial := kept[:0:0]
			for i, smp := range s {
				if !drop[i] && i != cd.idx {
					trial = append(trial, smp)
				}
			}
			if distinctNodeCounts(trial) < floor {
				continue
			}
			drop[cd.idx] = true
			kept = trial
			out = append(out, RejectedSample{
				Component: comp.String(),
				Nodes:     s[cd.idx].Nodes,
				Time:      s[cd.idx].Time,
				Residual:  resid[cd.idx],
			})
		}
		if len(drop) > 0 {
			d.Samples[comp] = kept
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}
