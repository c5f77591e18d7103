package jobstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hslb/internal/clock"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestLifecycle(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	j, err := s.Enqueue(json.RawMessage(`{"model":"m"}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != Queued || j.ID != 1 {
		t.Fatalf("enqueued job = %+v", j)
	}
	if d := s.Depth(); d != 1 {
		t.Fatalf("depth = %d", d)
	}

	got, wait, err := s.Lease("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || wait != 0 {
		t.Fatalf("dequeue = %v, %v", got, wait)
	}
	if got.Status != Running || got.Attempts != 1 {
		t.Fatalf("running job = %+v", got)
	}

	if err := s.MarkDone(got.ID, got.Fence, json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	final, ok := s.Get(got.ID)
	if !ok || final.Status != Done || string(final.Result) != `{"ok":true}` {
		t.Fatalf("final = %+v", final)
	}
	if c := s.Counts(); c[Done] != 1 || c[Queued] != 0 {
		t.Fatalf("counts = %v", c)
	}
}

func TestEmptyQueueDequeue(t *testing.T) {
	s := open(t, "", Options{})
	j, wait, err := s.Lease("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if j != nil || wait != 0 {
		t.Fatalf("empty dequeue = %v, %v", j, wait)
	}
}

func TestFailedPermanently(t *testing.T) {
	s := open(t, "", Options{})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 3)
	run, _, _ := s.Lease("", 0)
	if err := s.MarkFailed(j.ID, run.Fence, "parse error"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(j.ID)
	if got.Status != Failed || got.Error != "parse error" {
		t.Fatalf("failed job = %+v", got)
	}
	// Failed jobs are not re-dequeued.
	if next, _, _ := s.Lease("", 0); next != nil {
		t.Fatalf("failed job dequeued: %+v", next)
	}
}

func TestRetryWithBackoffThenExhaustion(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	s := open(t, "", Options{Clock: clk})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 2)

	run, _, _ := s.Lease("", 0)
	retried, err := s.Requeue(j.ID, run.Fence, "timeout", 100*time.Millisecond)
	if err != nil || !retried {
		t.Fatalf("requeue = %v, %v", retried, err)
	}

	// Backed off: not runnable yet, Lease reports the wait.
	got, wait, _ := s.Lease("", 0)
	if got != nil || wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("backoff dequeue = %v, %v", got, wait)
	}
	clk.Advance(200 * time.Millisecond)
	run2, _, _ := s.Lease("", 0)
	if run2 == nil || run2.Attempts != 2 {
		t.Fatalf("second attempt = %+v", run2)
	}

	// Attempts exhausted: Requeue finalizes as failed.
	retried, err = s.Requeue(j.ID, run2.Fence, "timeout again", 100*time.Millisecond)
	if err != nil || retried {
		t.Fatalf("exhausted requeue = %v, %v", retried, err)
	}
	final, _ := s.Get(j.ID)
	if final.Status != Failed || final.Error != "timeout again" {
		t.Fatalf("final = %+v", final)
	}
}

func TestStaleAttemptRejected(t *testing.T) {
	s := open(t, "", Options{})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 5)
	run, _, _ := s.Lease("", 0)
	// First attempt is abandoned (timeout) and re-queued...
	if _, err := s.Requeue(j.ID, run.Fence, "timeout", 0); err != nil {
		t.Fatal(err)
	}
	run2, _, _ := s.Lease("", 0)
	// ...then the stale attempt finally reports: it must be rejected.
	if err := s.MarkDone(j.ID, run.Fence, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale MarkDone err = %v", err)
	}
	if err := s.MarkDone(j.ID, run2.Fence, json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryRunsExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	if _, err := s1.Enqueue(json.RawMessage(`{"model":"a"}`), 3); err != nil {
		t.Fatal(err)
	}
	run, _, err := s1.Lease("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Status != Running {
		t.Fatalf("status = %v", run.Status)
	}
	// Crash: the process dies mid-solve. No Close, no MarkDone.

	s2 := open(t, dir, Options{})
	if s2.Recovered() != 1 {
		t.Fatalf("recovered = %d", s2.Recovered())
	}
	got, wait, err := s2.Lease("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("recovered job not dequeued (wait %v)", wait)
	}
	if got.ID != run.ID || string(got.Request) != `{"model":"a"}` {
		t.Fatalf("recovered job = %+v", got)
	}
	// The interrupted attempt still counts: this is attempt 2.
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d", got.Attempts)
	}
	if err := s2.MarkDone(got.ID, got.Fence, json.RawMessage(`"r"`)); err != nil {
		t.Fatal(err)
	}
	// Exactly once: nothing left to run.
	if extra, _, _ := s2.Lease("", 0); extra != nil {
		t.Fatalf("job ran twice: %+v", extra)
	}
}

func TestRecoveryPreservesCompletedAndIDs(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	a, _ := s1.Enqueue(json.RawMessage(`1`), 1)
	b, _ := s1.Enqueue(json.RawMessage(`2`), 1)
	run, _, _ := s1.Lease("", 0)
	s1.MarkDone(run.ID, run.Fence, json.RawMessage(`"done-a"`))
	s1.Close()

	s2 := open(t, dir, Options{})
	gotA, _ := s2.Get(a.ID)
	if gotA.Status != Done || string(gotA.Result) != `"done-a"` {
		t.Fatalf("job a = %+v", gotA)
	}
	gotB, _ := s2.Get(b.ID)
	if gotB.Status != Queued {
		t.Fatalf("job b = %+v", gotB)
	}
	// New IDs continue after the recovered maximum.
	c, _ := s2.Enqueue(json.RawMessage(`3`), 1)
	if c.ID != b.ID+1 {
		t.Fatalf("id after recovery = %d, want %d", c.ID, b.ID+1)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	s1.Enqueue(json.RawMessage(`1`), 1)
	s1.Close()

	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial JSON line at the tail.
	if _, err := f.WriteString(`{"op":"put","job":{"id":2,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := open(t, dir, Options{})
	if _, ok := s2.Get(1); !ok {
		t.Fatal("intact job lost")
	}
	if _, ok := s2.Get(2); ok {
		t.Fatal("torn job resurrected")
	}
}

func TestTTLEvictionAndCompaction(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	dir := t.TempDir()
	s := open(t, dir, Options{Clock: clk})

	old, _ := s.Enqueue(json.RawMessage(`1`), 1)
	run, _, _ := s.Lease("", 0)
	s.MarkDone(run.ID, run.Fence, nil)
	fresh, _ := s.Enqueue(json.RawMessage(`2`), 1)

	clk.Advance(2 * time.Hour)
	n, err := s.EvictCompleted(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("evicted = %d", n)
	}
	if _, ok := s.Get(old.ID); ok {
		t.Fatal("expired job survived")
	}
	if _, ok := s.Get(fresh.ID); !ok {
		t.Fatal("queued job evicted")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	// Compaction + eviction survive a restart.
	s.Close()
	s2 := open(t, dir, Options{Clock: clk})
	if _, ok := s2.Get(old.ID); ok {
		t.Fatal("expired job resurrected after restart")
	}
	if got, ok := s2.Get(fresh.ID); !ok || got.Status != Queued {
		t.Fatalf("fresh job after restart = %+v", got)
	}
}

func TestAutoCompactionBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CompactEvery: 16})
	for i := 0; i < 40; i++ {
		j, _ := s.Enqueue(json.RawMessage(`{}`), 1)
		run, _, _ := s.Lease("", 0)
		s.MarkDone(run.ID, run.Fence, nil)
		if _, err := s.EvictCompleted(0); err != nil {
			t.Fatal(err)
		}
		_ = j
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// 40 jobs × 4 records each ≈ 160 records uncompacted; auto-compaction
	// with an empty live set keeps the file tiny.
	if fi.Size() > 4096 {
		t.Fatalf("WAL grew to %d bytes despite auto-compaction", fi.Size())
	}
}

func TestReadySignal(t *testing.T) {
	s := open(t, "", Options{})
	select {
	case <-s.Ready():
		t.Fatal("ready before any enqueue")
	default:
	}
	s.Enqueue(json.RawMessage(`{}`), 1)
	select {
	case <-s.Ready():
	case <-time.After(time.Second):
		t.Fatal("no ready signal after enqueue")
	}
}

func TestMemoryOnlyModeHasNoFiles(t *testing.T) {
	s := open(t, "", Options{})
	j, err := s.Enqueue(json.RawMessage(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	run, _, _ := s.Lease("", 0)
	if run.ID != j.ID {
		t.Fatalf("dequeued %d", run.ID)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPendingShedsEnqueue(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxPending: 2})
	req := json.RawMessage(`{"model":"m"}`)
	if _, err := s.Enqueue(req, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(req, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(req, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if p := s.Pending(); p != 2 {
		t.Fatalf("pending = %d, want 2", p)
	}

	// A running job still counts against the cap: dequeuing must not open
	// a slot until the job reaches a terminal state.
	j, _, err := s.Lease("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(req, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("running job freed a pending slot: err = %v", err)
	}
	if err := s.MarkDone(j.ID, j.Fence, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(req, 1); err != nil {
		t.Fatalf("slot not reclaimed after completion: %v", err)
	}
}

func TestMaxPendingSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxPending: 1})
	if _, err := s.Enqueue(json.RawMessage(`{}`), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The recovered queued job fills the cap in the next process too.
	s2 := open(t, dir, Options{MaxPending: 1})
	if _, err := s2.Enqueue(json.RawMessage(`{}`), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull after recovery", err)
	}
}

// An operator-set MaxAttempts far past the default must not park a job for
// days or, once the doubling overflows, rerun it immediately: every
// requeue's NotBefore stays in (now, now+maxRetryBackoff].
func TestRequeueBackoffCapped(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	s := open(t, "", Options{Clock: clk})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 64)
	for attempt := 1; attempt < 64; attempt++ {
		run, _, err := s.Lease("", 0)
		if err != nil || run == nil || run.Attempts != attempt {
			t.Fatalf("attempt %d: dequeue = %+v, %v", attempt, run, err)
		}
		retried, err := s.Requeue(j.ID, run.Fence, "timeout", 250*time.Millisecond)
		if err != nil || !retried {
			t.Fatalf("attempt %d: requeue = %v, %v", attempt, retried, err)
		}
		got, _ := s.Get(j.ID)
		if !got.NotBefore.After(clk.Now()) || got.NotBefore.After(clk.Now().Add(maxRetryBackoff)) {
			t.Fatalf("attempt %d: NotBefore - now = %v, want within (0, %v]",
				attempt, got.NotBefore.Sub(clk.Now()), maxRetryBackoff)
		}
		clk.Advance(got.NotBefore.Sub(clk.Now()))
	}
}

// TestSyncStoreCreatesNestedDataDir: a synced store creates a data
// directory whose parents do not exist yet (each synced into its parent)
// and finds its jobs there after a reopen.
func TestSyncStoreCreatesNestedDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data", "jobs")
	s := open(t, dir, Options{Sync: true})
	j, err := s.Enqueue(json.RawMessage(`{"model":"m"}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := open(t, dir, Options{Sync: true})
	if got, ok := s2.Get(j.ID); !ok || got.Status != Queued {
		t.Fatalf("job after reopen = %+v, %v", got, ok)
	}
}
