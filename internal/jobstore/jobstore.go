// Package jobstore implements the durable job queue behind the NEOS-style
// solve service. Jobs move through an explicit lifecycle
// (queued → running → done|failed) and every transition is appended to a
// JSONL write-ahead log, so a crashed server recovers its queue on
// restart: jobs that were running at the crash are re-queued and run
// again. Retries are bounded per job with exponential backoff, and
// completed jobs are evicted after a TTL to keep the log from growing
// without bound.
//
// With an empty directory path the store runs memory-only (no WAL), which
// preserves the pre-durability behavior for tests and ephemeral servers.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hslb/internal/backoff"
	"hslb/internal/clock"
	"hslb/internal/jsonl"
)

// Status is the lifecycle state of a job.
type Status string

// Job lifecycle states.
const (
	Queued  Status = "queued"
	Running Status = "running"
	Done    Status = "done"
	Failed  Status = "failed"
)

// Job is one unit of work. Request and Result are opaque JSON payloads;
// the store never interprets them.
type Job struct {
	ID          int64           `json:"id"`
	Status      Status          `json:"status"`
	Request     json.RawMessage `json:"request"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
	Attempts    int             `json:"attempts"`
	MaxAttempts int             `json:"max_attempts"`
	EnqueuedAt  time.Time       `json:"enqueued_at"`
	StartedAt   time.Time       `json:"started_at,omitempty"`
	FinishedAt  time.Time       `json:"finished_at,omitempty"`
	// NotBefore delays re-execution after a retryable failure (backoff).
	NotBefore time.Time `json:"not_before,omitempty"`
	// Fence is the monotonically increasing per-job fencing token, bumped
	// each time the job is leased. Terminal transitions must present the
	// current token; anything older is rejected with ErrStaleLease, so a
	// worker whose lease expired (and whose job was handed to someone else)
	// cannot clobber the newer execution. Persisted so monotonicity
	// survives restarts.
	Fence int64 `json:"fence,omitempty"`
	// Worker identifies the holder of the current lease ("" when queued or
	// terminal). Leases do not survive restart.
	Worker string `json:"worker,omitempty"`
	// LeaseExpiry is when the current lease lapses and the reaper may
	// reclaim the job (zero = no expiry).
	LeaseExpiry time.Time `json:"lease_expiry,omitempty"`
}

// record is one WAL line. "put" and "lease" carry a full job snapshot
// (last record per ID wins), "del" a tombstone, and "expire" a reaper
// reclaim that applies only when the stored fence still matches. A lease
// renewal writes no record: its expiry only matters while the process
// lives, and Open clears the lease of every running job anyway. Replay
// skips ops it does not know, such as the "renew" lines older logs hold.
// Compaction folds every record type back into one "put" snapshot per
// live job.
type record struct {
	Op    string `json:"op"`
	Job   *Job   `json:"job,omitempty"`
	ID    int64  `json:"id,omitempty"`
	Fence int64  `json:"fence,omitempty"`
}

// Options configures a Store.
type Options struct {
	// Sync fsyncs the WAL after every append, and syncs each directory
	// Open creates (the data directory, its missing parents, the WAL's
	// entry) into its parent. Off by default: the log is
	// still flushed to the OS per transition (surviving process crashes),
	// but not guaranteed against power loss.
	Sync bool
	// CompactEvery rewrites the WAL after this many appended records
	// (default 4096; <0 disables auto-compaction).
	CompactEvery int
	// MaxPending caps jobs that are queued or running; Enqueue returns
	// ErrQueueFull at the cap, so an overloaded server sheds submissions
	// instead of growing the WAL without bound (0 = unlimited).
	MaxPending int
	// Clock times leases, retry backoffs and TTL eviction (nil =
	// clock.Wall); a server passes its own, so one clock rules both.
	Clock clock.Clock
}

// Store is a durable FIFO job queue. All methods are safe for concurrent
// use.
type Store struct {
	mu sync.Mutex
	// wal is nil for a memory-only store.
	wal     *jsonl.Log
	opts    Options
	jobs    map[int64]*Job
	nextID  int64
	appends int
	closed  bool
	// ready is a capacity-1 signal that a job may be available to Lease.
	ready chan struct{}
	// recovered counts running→queued transitions performed at Open.
	recovered int
	// reclaims counts expired-lease requeues (and expiry-exhausted
	// failures) performed by the reaper; staleRejects counts transitions
	// rejected with ErrStaleLease. Both are cumulative for /metrics.
	reclaims     uint64
	staleRejects uint64
}

const walName = "jobs.wal"

// maxRetryBackoff caps the delay Requeue puts before a retried attempt.
// MaxAttempts is operator-set, so an uncapped doubling would park a job
// for days by attempt 20; the default three-attempt schedule never
// reaches the cap.
const maxRetryBackoff = time.Minute

// ErrStaleLease is returned when a transition presents a fencing token
// that no longer matches the job's current lease — the lease expired, was
// released, or the job was re-leased to another worker. The stale holder
// must abandon its work; the result it computed will never be recorded.
var ErrStaleLease = errors.New("jobstore: stale lease fencing token")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobstore: no such job")

// ErrQueueFull is returned by Enqueue when Options.MaxPending queued or
// running jobs already exist. Callers should surface it as backpressure
// (the solve service maps it to HTTP 429) rather than retry immediately.
var ErrQueueFull = errors.New("jobstore: queue full")

// Open loads (or creates) a store rooted at dir. dir == "" runs the store
// memory-only, with no durability. Jobs found in the running state are
// re-queued: they were in flight when the previous process died.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 4096
	}
	opts.Clock = clock.Or(opts.Clock)
	s := &Store{
		opts:  opts,
		jobs:  map[int64]*Job{},
		ready: make(chan struct{}, 1),
	}
	if dir == "" {
		return s, nil
	}
	if err := jsonl.MkdirAll(dir, opts.Sync); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	wal, err := jsonl.Open(filepath.Join(dir, walName), opts.Sync, s.replay)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s.wal = wal
	// Leases do not survive restart: whoever held them may be gone, and a
	// still-alive holder's completion is fenced off by the token it kept —
	// the next lease issues a higher one. The fence itself is preserved so
	// monotonicity spans restarts.
	for _, j := range s.jobs {
		if j.Status == Running {
			j.Status = Queued
			j.StartedAt = time.Time{}
			j.Worker = ""
			j.LeaseExpiry = time.Time{}
			s.recovered++
		}
	}
	// Compact when the log needs it: crash-recovery transitions
	// (running → queued) must be persisted, and a log more than half dead
	// records is rewritten so restarts bound WAL growth instead of
	// inheriting it.
	if s.recovered > 0 || s.mostlyDeadLocked() {
		if err := s.compactLocked(); err != nil {
			wal.Close()
			return nil, err
		}
	}
	for _, j := range s.jobs {
		if j.Status == Queued {
			s.signal()
			break
		}
	}
	return s, nil
}

// replay applies one WAL record. An unparseable line is a torn tail
// from a crash mid-write; everything before it is intact, so replay stops
// there and the log is cut back to it.
func (s *Store) replay(line []byte) bool {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return false
	}
	switch rec.Op {
	case "put", "lease":
		if rec.Job != nil {
			j := *rec.Job
			s.jobs[j.ID] = &j
			if j.ID > s.nextID {
				s.nextID = j.ID
			}
		}
	case "del":
		delete(s.jobs, rec.ID)
	case "expire":
		if j, ok := s.jobs[rec.ID]; ok && j.Status == Running && j.Fence == rec.Fence {
			j.Status = Queued
			j.StartedAt = time.Time{}
			j.Worker = ""
			j.LeaseExpiry = time.Time{}
		}
	}
	return true
}

// Recovered returns how many in-flight jobs were re-queued at Open.
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Close flushes and closes the WAL. Pending jobs stay on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Enqueue appends a new queued job and returns a snapshot of it. When the
// store already holds Options.MaxPending queued or running jobs it returns
// ErrQueueFull without growing the WAL.
func (s *Store) Enqueue(request json.RawMessage, maxAttempts int) (Job, error) {
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, errors.New("jobstore: closed")
	}
	if s.opts.MaxPending > 0 && s.pendingLocked() >= s.opts.MaxPending {
		return Job{}, ErrQueueFull
	}
	s.nextID++
	j := &Job{
		ID:          s.nextID,
		Status:      Queued,
		Request:     request,
		Attempts:    0,
		MaxAttempts: maxAttempts,
		EnqueuedAt:  s.opts.Clock.Now(),
	}
	s.jobs[j.ID] = j
	if err := s.appendLocked(record{Op: "put", Job: j}); err != nil {
		return Job{}, err
	}
	s.signal()
	return *j, nil
}

// Lease claims the oldest runnable queued job for workerID, marking it
// running, incrementing its attempt counter, and issuing a fresh fencing
// token (Job.Fence). A ttl > 0 arms lease expiry: unless the holder calls
// Renew, MarkDone, MarkFailed, Requeue, or Release within ttl, the reaper
// requeues the job and the holder's token goes stale. ttl <= 0 leases
// without expiry (local workers that cannot silently vanish).
//
// Expired leases are reclaimed inline before selection, so a polling
// worker sees reclaimed work without waiting for a reaper tick. When
// nothing is runnable it returns (nil, wait): wait > 0 means a backed-off
// job or an expiring lease becomes actionable after that duration;
// wait == 0 means the queue is idle — block on Ready().
func (s *Store) Lease(workerID string, ttl time.Duration) (*Job, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, errors.New("jobstore: closed")
	}
	if _, err := s.reapExpiredLocked(); err != nil {
		return nil, 0, err
	}
	now := s.opts.Clock.Now()
	var best *Job
	var earliest time.Time
	for _, j := range s.jobs {
		switch j.Status {
		case Running:
			// A live lease expiring soonest bounds how long an idle
			// worker should sleep before re-polling for reclaimed work.
			if !j.LeaseExpiry.IsZero() && (earliest.IsZero() || j.LeaseExpiry.Before(earliest)) {
				earliest = j.LeaseExpiry
			}
			continue
		case Queued:
		default:
			continue
		}
		if j.NotBefore.After(now) {
			if earliest.IsZero() || j.NotBefore.Before(earliest) {
				earliest = j.NotBefore
			}
			continue
		}
		if best == nil || j.ID < best.ID {
			best = j
		}
	}
	if best == nil {
		if earliest.IsZero() {
			return nil, 0, nil
		}
		return nil, earliest.Sub(now), nil
	}
	best.Status = Running
	best.Attempts++
	best.StartedAt = now
	best.NotBefore = time.Time{}
	best.Fence++
	best.Worker = workerID
	if ttl > 0 {
		best.LeaseExpiry = now.Add(ttl)
	} else {
		best.LeaseExpiry = time.Time{}
	}
	if err := s.appendLocked(record{Op: "lease", Job: best}); err != nil {
		return nil, 0, err
	}
	cp := *best
	return &cp, 0, nil
}

// Renew extends the lease on job id by ttl from now. The caller must
// present the fencing token its Lease returned; a token that no longer
// matches (expired and re-leased, released, or finished) is rejected with
// ErrStaleLease — the signal to stop computing. The new expiry is held in
// memory only: a heartbeat appends nothing to the WAL.
func (s *Store) Renew(id, fence int64, ttl time.Duration) (time.Duration, error) {
	if ttl <= 0 {
		return 0, errors.New("jobstore: non-positive lease ttl")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return 0, ErrNotFound
	}
	if j.Status != Running || j.Fence != fence {
		s.staleRejects++
		return 0, ErrStaleLease
	}
	j.LeaseExpiry = s.opts.Clock.Now().Add(ttl)
	return ttl, nil
}

// Release returns a leased job to the queue without consuming an attempt —
// a draining worker handing back work it never started, as opposed to
// Requeue (a failed attempt, with backoff). Stale tokens are rejected.
func (s *Store) Release(id, fence int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.Status != Running || j.Fence != fence {
		s.staleRejects++
		return ErrStaleLease
	}
	j.Status = Queued
	j.Attempts--
	j.StartedAt = time.Time{}
	j.Worker = ""
	j.LeaseExpiry = time.Time{}
	// A full snapshot, not an "expire" record: Release rolls the attempt
	// counter back, which expire replay deliberately does not.
	if err := s.appendLocked(record{Op: "put", Job: j}); err != nil {
		return err
	}
	s.signal()
	return nil
}

// ReapExpired requeues every job whose lease has lapsed (or fails it when
// its attempts are exhausted), returning how many were reclaimed. The
// holder's fencing token goes stale the moment the job leaves Running.
func (s *Store) ReapExpired() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reapExpiredLocked()
}

func (s *Store) reapExpiredLocked() (int, error) {
	now := s.opts.Clock.Now()
	n := 0
	for _, j := range s.jobs {
		if j.Status != Running || j.LeaseExpiry.IsZero() || j.LeaseExpiry.After(now) {
			continue
		}
		n++
		s.reclaims++
		if j.Attempts >= j.MaxAttempts {
			j.Error = fmt.Sprintf("lease expired on attempt %d/%d (worker %q)",
				j.Attempts, j.MaxAttempts, j.Worker)
			j.Status = Failed
			j.FinishedAt = now
			j.Worker = ""
			j.LeaseExpiry = time.Time{}
			if err := s.appendLocked(record{Op: "put", Job: j}); err != nil {
				return n, err
			}
			continue
		}
		j.Status = Queued
		j.StartedAt = time.Time{}
		j.Worker = ""
		j.LeaseExpiry = time.Time{}
		if err := s.appendLocked(record{Op: "expire", ID: j.ID, Fence: j.Fence}); err != nil {
			return n, err
		}
		s.signal()
	}
	return n, nil
}

// Ready signals that a job may have become runnable (enqueue, retry, or
// crash recovery). The channel has capacity 1; drain it and call Lease.
func (s *Store) Ready() <-chan struct{} { return s.ready }

func (s *Store) signal() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// MarkDone finalizes a running job with its result. fence must be the
// fencing token issued by the Lease that claimed the job, so a stale,
// abandoned execution cannot clobber a newer one.
func (s *Store) MarkDone(id, fence int64, result json.RawMessage) error {
	return s.finish(id, fence, Done, result, "")
}

// MarkFailed finalizes a running job as permanently failed.
func (s *Store) MarkFailed(id, fence int64, errMsg string) error {
	return s.finish(id, fence, Failed, nil, errMsg)
}

func (s *Store) finish(id, fence int64, st Status, result json.RawMessage, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.Status != Running || j.Fence != fence {
		s.staleRejects++
		return ErrStaleLease
	}
	j.Status = st
	j.Result = result
	j.Error = errMsg
	j.FinishedAt = s.opts.Clock.Now()
	j.Worker = ""
	j.LeaseExpiry = time.Time{}
	return s.appendLocked(record{Op: "put", Job: j})
}

// Requeue reports a retryable failure of a running attempt. If the job
// has attempts left it returns to the queue with exponential backoff
// (retryBackoff · 2^(attempts-1), capped at maxRetryBackoff) and Requeue
// returns true; otherwise the job is marked failed and Requeue returns
// false. Stale fencing tokens are rejected with ErrStaleLease.
func (s *Store) Requeue(id, fence int64, errMsg string, retryBackoff time.Duration) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, ErrNotFound
	}
	if j.Status != Running || j.Fence != fence {
		s.staleRejects++
		return false, ErrStaleLease
	}
	j.Error = errMsg
	j.Worker = ""
	j.LeaseExpiry = time.Time{}
	if j.Attempts >= j.MaxAttempts {
		j.Status = Failed
		j.FinishedAt = s.opts.Clock.Now()
		return false, s.appendLocked(record{Op: "put", Job: j})
	}
	j.Status = Queued
	j.StartedAt = time.Time{}
	if retryBackoff > 0 {
		j.NotBefore = s.opts.Clock.Now().Add(backoff.Delay(retryBackoff, maxRetryBackoff, j.Attempts-1))
	}
	if err := s.appendLocked(record{Op: "put", Job: j}); err != nil {
		return false, err
	}
	s.signal()
	return true, nil
}

// Get returns a snapshot of one job.
func (s *Store) Get(id int64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of all jobs, oldest first. A non-empty status
// filters the listing.
func (s *Store) List(status Status) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if status != "" && j.Status != status {
			continue
		}
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Counts returns the number of jobs per lifecycle state.
func (s *Store) Counts() map[Status]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[Status]int{Queued: 0, Running: 0, Done: 0, Failed: 0}
	for _, j := range s.jobs {
		out[j.Status]++
	}
	return out
}

// LeaseStats is a snapshot of lease health for /metrics.
type LeaseStats struct {
	// Leased is the number of jobs currently running under a lease.
	Leased int
	// ActiveWorkers is the number of distinct worker IDs holding a lease.
	ActiveWorkers int
	// Reclaims is the cumulative count of expired-lease reclaims.
	Reclaims uint64
	// StaleRejects is the cumulative count of transitions rejected with
	// ErrStaleLease.
	StaleRejects uint64
}

// LeaseStats reports current lease occupancy and the cumulative reclaim
// and stale-rejection counters.
func (s *Store) LeaseStats() LeaseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := LeaseStats{Reclaims: s.reclaims, StaleRejects: s.staleRejects}
	workers := map[string]bool{}
	for _, j := range s.jobs {
		if j.Status != Running {
			continue
		}
		st.Leased++
		if j.Worker != "" && !workers[j.Worker] {
			workers[j.Worker] = true
			st.ActiveWorkers++
		}
	}
	return st
}

// pendingLocked counts jobs that still need work (queued or running).
func (s *Store) pendingLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.Status == Queued || j.Status == Running {
			n++
		}
	}
	return n
}

// Pending returns the number of queued or running jobs — the count bounded
// by Options.MaxPending.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingLocked()
}

// Depth returns the number of queued jobs.
func (s *Store) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.Status == Queued {
			n++
		}
	}
	return n
}

// EvictCompleted removes done and failed jobs that finished at least ttl
// ago, returning how many were evicted. Tombstones are logged so replay
// agrees; compaction reclaims the space.
func (s *Store) EvictCompleted(ttl time.Duration) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.opts.Clock.Now().Add(-ttl)
	n := 0
	for id, j := range s.jobs {
		if (j.Status == Done || j.Status == Failed) && !j.FinishedAt.IsZero() && !j.FinishedAt.After(cutoff) {
			delete(s.jobs, id)
			if err := s.appendLocked(record{Op: "del", ID: id}); err != nil {
				return n, err
			}
			n++
		}
	}
	// Eviction writes tombstones but reclaims nothing; rewrite the log
	// when it is now more than half dead records.
	if n > 0 && s.mostlyDeadLocked() {
		if err := s.compactLocked(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// mostlyDeadLocked reports whether more than half the WAL's records are
// superseded or tombstoned.
func (s *Store) mostlyDeadLocked() bool {
	return s.wal != nil && s.wal.Records()-len(s.jobs) > s.wal.Records()/2
}

// Compact rewrites the WAL to one snapshot per live job.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Rewrite(func(enc *json.Encoder) error {
		for _, j := range s.sortedJobsLocked() {
			if err := enc.Encode(record{Op: "put", Job: j}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	s.appends = 0
	return nil
}

// WALSize returns the current write-ahead log size in bytes (0 for a
// memory-only store).
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0
	}
	return s.wal.Size()
}

// Records returns the number of WAL records on disk, live and dead.
func (s *Store) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0
	}
	return s.wal.Records()
}

func (s *Store) sortedJobsLocked() []*Job {
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func (s *Store) appendLocked(rec record) error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Append(rec); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	s.appends++
	if s.opts.CompactEvery > 0 && s.appends >= s.opts.CompactEvery && s.appends > 2*len(s.jobs) {
		return s.compactLocked()
	}
	return nil
}
