package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hslb/internal/clock"
)

func TestLeaseFencingLifecycle(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	s := open(t, t.TempDir(), Options{Clock: clk})
	j, err := s.Enqueue(json.RawMessage(`{"m":1}`), 3)
	if err != nil {
		t.Fatal(err)
	}

	got, wait, err := s.Lease("w1", time.Second)
	if err != nil || got == nil || wait != 0 {
		t.Fatalf("lease = %v, %v, %v", got, wait, err)
	}
	if got.Status != Running || got.Fence != 1 || got.Worker != "w1" || got.Attempts != 1 {
		t.Fatalf("leased job = %+v", got)
	}
	if want := clk.Now().Add(time.Second); !got.LeaseExpiry.Equal(want) {
		t.Fatalf("expiry = %v, want %v", got.LeaseExpiry, want)
	}

	// Renew pushes the expiry forward.
	clk.Advance(500 * time.Millisecond)
	if _, err := s.Renew(j.ID, got.Fence, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	cur, _ := s.Get(j.ID)
	if want := clk.Now().Add(2 * time.Second); !cur.LeaseExpiry.Equal(want) {
		t.Fatalf("renewed expiry = %v, want %v", cur.LeaseExpiry, want)
	}

	// Wrong token: renew and finish both rejected, real token still works.
	if _, err := s.Renew(j.ID, got.Fence+1, time.Second); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale renew err = %v", err)
	}
	if err := s.MarkDone(j.ID, got.Fence+1, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale done err = %v", err)
	}
	if err := s.MarkDone(j.ID, got.Fence, json.RawMessage(`"ok"`)); err != nil {
		t.Fatal(err)
	}
	// Terminal: even the once-valid token is now stale.
	if err := s.MarkDone(j.ID, got.Fence, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("post-terminal done err = %v", err)
	}
	st := s.LeaseStats()
	if st.StaleRejects != 3 || st.Leased != 0 {
		t.Fatalf("lease stats = %+v", st)
	}
}

func TestLeaseExpiryReclaimAndStaleComplete(t *testing.T) {
	clk := clock.NewFake(time.Unix(2000, 0))
	s := open(t, t.TempDir(), Options{Clock: clk})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 3)

	first, _, err := s.Lease("zombie", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(1500 * time.Millisecond)
	n, err := s.ReapExpired()
	if err != nil || n != 1 {
		t.Fatalf("reap = %d, %v", n, err)
	}
	cur, _ := s.Get(j.ID)
	if cur.Status != Queued || cur.Worker != "" || !cur.LeaseExpiry.IsZero() {
		t.Fatalf("reclaimed job = %+v", cur)
	}
	// The interrupted attempt counts.
	if cur.Attempts != 1 || cur.Fence != 1 {
		t.Fatalf("reclaimed attempts/fence = %d/%d", cur.Attempts, cur.Fence)
	}

	// The job is re-leased with a higher token; the zombie's write loses.
	second, _, err := s.Lease("healthy", time.Second)
	if err != nil || second == nil {
		t.Fatalf("re-lease = %v, %v", second, err)
	}
	if second.Fence != 2 || second.Attempts != 2 {
		t.Fatalf("re-leased job = %+v", second)
	}
	if err := s.MarkDone(j.ID, first.Fence, json.RawMessage(`"zombie"`)); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("zombie complete err = %v", err)
	}
	if err := s.MarkDone(j.ID, second.Fence, json.RawMessage(`"good"`)); err != nil {
		t.Fatal(err)
	}
	final, _ := s.Get(j.ID)
	if final.Status != Done || string(final.Result) != `"good"` {
		t.Fatalf("final = %+v", final)
	}
	st := s.LeaseStats()
	if st.Reclaims != 1 || st.StaleRejects != 1 {
		t.Fatalf("lease stats = %+v", st)
	}
}

func TestLeaseExpiryExhaustsAttempts(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	s := open(t, "", Options{Clock: clk})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 1)
	if _, _, err := s.Lease("w", time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if n, _ := s.ReapExpired(); n != 1 {
		t.Fatalf("reap = %d", n)
	}
	final, _ := s.Get(j.ID)
	if final.Status != Failed || final.Error == "" {
		t.Fatalf("exhausted job = %+v", final)
	}
}

func TestLeaseInlineReap(t *testing.T) {
	clk := clock.NewFake(time.Unix(4000, 0))
	s := open(t, "", Options{Clock: clk})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 3)
	if _, _, err := s.Lease("w1", time.Second); err != nil {
		t.Fatal(err)
	}
	// No explicit reaper tick: the next Lease call reclaims inline.
	clk.Advance(2 * time.Second)
	got, _, err := s.Lease("w2", time.Second)
	if err != nil || got == nil {
		t.Fatalf("lease after expiry = %v, %v", got, err)
	}
	if got.ID != j.ID || got.Fence != 2 || got.Worker != "w2" {
		t.Fatalf("reclaimed lease = %+v", got)
	}
}

func TestLeaseWaitHintCoversExpiry(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	s := open(t, "", Options{Clock: clk})
	s.Enqueue(json.RawMessage(`{}`), 3)
	if _, _, err := s.Lease("w1", time.Second); err != nil {
		t.Fatal(err)
	}
	// Queue drained, one live lease: the wait hint points at its expiry so
	// a polling worker comes back in time to pick up a reclaim.
	got, wait, err := s.Lease("w2", time.Second)
	if err != nil || got != nil {
		t.Fatalf("lease = %v, %v", got, err)
	}
	if wait != time.Second {
		t.Fatalf("wait = %v, want 1s (time to lease expiry)", wait)
	}
}

func TestReleaseReturnsAttempt(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 3)
	got, _, err := s.Lease("drainer", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(j.ID, got.Fence); err != nil {
		t.Fatal(err)
	}
	cur, _ := s.Get(j.ID)
	if cur.Status != Queued || cur.Attempts != 0 || cur.Worker != "" {
		t.Fatalf("released job = %+v", cur)
	}
	// The returned lease's token is spent.
	if err := s.Release(j.ID, got.Fence); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("double release err = %v", err)
	}
	// Fence monotonicity is preserved across the release.
	again, _, err := s.Lease("other", time.Minute)
	if err != nil || again.Fence != 2 || again.Attempts != 1 {
		t.Fatalf("re-lease after release = %+v, %v", again, err)
	}
}

// TestLeaseRecordsSurviveRestart exercises the lease and expire WAL
// record types, with a renewal between them, end to end: a crash replays them, recovered running jobs
// requeue with their lease cleared, and the fencing token stays monotonic
// across the restart so a pre-crash holder can never complete.
func TestLeaseRecordsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(time.Unix(6000, 0))
	s1 := open(t, dir, Options{Clock: clk, CompactEvery: -1})
	a, _ := s1.Enqueue(json.RawMessage(`"a"`), 3)
	b, _ := s1.Enqueue(json.RawMessage(`"b"`), 3)

	// Job a: leased, renewed, expired, re-leased — full record zoo.
	la, _, _ := s1.Lease("w1", time.Second)
	if _, err := s1.Renew(a.ID, la.Fence, time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)
	if n, _ := s1.ReapExpired(); n != 1 {
		t.Fatal("expire record not written")
	}
	la2, _, _ := s1.Lease("w2", time.Minute)
	if la2 == nil || la2.ID != a.ID || la2.Fence != 2 {
		t.Fatalf("re-lease = %+v", la2)
	}
	// Job b: still leased at the "crash".
	lb, _, _ := s1.Lease("w3", time.Minute)
	if lb == nil || lb.ID != b.ID {
		t.Fatalf("lease b = %+v", lb)
	}
	// Crash: no Close, no terminal transitions.

	s2 := open(t, dir, Options{Clock: clk, CompactEvery: -1})
	if s2.Recovered() != 2 {
		t.Fatalf("recovered = %d", s2.Recovered())
	}
	ga, _ := s2.Get(a.ID)
	if ga.Status != Queued || ga.Worker != "" || !ga.LeaseExpiry.IsZero() {
		t.Fatalf("job a after restart = %+v", ga)
	}
	if ga.Fence != 2 || ga.Attempts != 2 {
		t.Fatalf("job a fence/attempts = %d/%d", ga.Fence, ga.Attempts)
	}
	// Leases are dead, so the pre-crash holder's token must not work even
	// before anyone re-leases.
	if err := s2.MarkDone(b.ID, lb.Fence, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("pre-crash token err = %v", err)
	}
	// New leases issue strictly higher tokens.
	n1, _, _ := s2.Lease("w4", time.Minute)
	n2, _, _ := s2.Lease("w4", time.Minute)
	if n1 == nil || n2 == nil {
		t.Fatal("recovered jobs not leasable")
	}
	for _, n := range []*Job{n1, n2} {
		var prev int64
		switch n.ID {
		case a.ID:
			prev = la2.Fence
		case b.ID:
			prev = lb.Fence
		}
		if n.Fence <= prev {
			t.Fatalf("fence not monotonic across restart: %d after %d", n.Fence, prev)
		}
	}
}

// TestTornTailMidLeaseRecord covers a crash mid-append of each new record
// type: replay keeps the intact prefix, drops the torn tail, and Open
// compacts so the next append never lands after garbage.
func TestTornTailMidLeaseRecord(t *testing.T) {
	for _, torn := range []string{
		`{"op":"lease","job":{"id":2,"status":"running","fence":1,"wor`,
		`{"op":"renew","id":1,"fence":1,"exp":"2026-01-0`,
		`{"op":"expire","id":1,"fen`,
	} {
		dir := t.TempDir()
		s1 := open(t, dir, Options{CompactEvery: -1})
		j, _ := s1.Enqueue(json.RawMessage(`{}`), 3)
		l, _, _ := s1.Lease("w", time.Minute)
		s1.Close()

		path := filepath.Join(dir, walName)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2 := open(t, dir, Options{CompactEvery: -1})
		got, ok := s2.Get(j.ID)
		if !ok {
			t.Fatalf("torn %q: intact job lost", torn)
		}
		// The lease record before the tear replayed (fence 1), the torn
		// record did not, and recovery requeued the running job.
		if got.Status != Queued || got.Fence != l.Fence {
			t.Fatalf("torn %q: job = %+v", torn, got)
		}
		if _, ok := s2.Get(2); ok && j.ID != 2 {
			t.Fatalf("torn %q: torn lease resurrected a job", torn)
		}
		// Open compacted the tear away: the log replays clean.
		if s2.Records() != 1 {
			t.Fatalf("torn %q: records = %d, want 1 after compaction", torn, s2.Records())
		}
		s2.Close()
	}
}

// TestCompactionFoldsLeaseRecords drives heavy renewal traffic (which
// writes no records) and checks compaction rewrites the log to one
// snapshot per live job that still replays with the lease state folded in.
func TestCompactionFoldsLeaseRecords(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(time.Unix(7000, 0))
	s := open(t, dir, Options{Clock: clk, CompactEvery: -1})
	j, _ := s.Enqueue(json.RawMessage(`{"keep":1}`), 3)
	l, _, _ := s.Lease("w", time.Minute)
	for i := 0; i < 50; i++ {
		clk.Advance(time.Second)
		if _, err := s.Renew(j.ID, l.Fence, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Records(); got != 2 {
		t.Fatalf("records before compact = %d", got)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Records(); got != 1 {
		t.Fatalf("records after compact = %d", got)
	}
	// The folded snapshot preserves the live lease within this process...
	cur, _ := s.Get(j.ID)
	if cur.Status != Running || cur.Fence != l.Fence || cur.Worker != "w" {
		t.Fatalf("lease lost in compaction: %+v", cur)
	}
	if err := s.MarkDone(j.ID, l.Fence, json.RawMessage(`"r"`)); err != nil {
		t.Fatalf("complete after compaction: %v", err)
	}
	s.Close()
	// ...and a restart replays the compacted log without it.
	s2 := open(t, dir, Options{CompactEvery: -1})
	final, _ := s2.Get(j.ID)
	if final.Status != Done || string(final.Result) != `"r"` {
		t.Fatalf("after restart = %+v", final)
	}
}

// TestRenewWritesNoRecord: a heartbeat moves the lease expiry in memory
// and appends nothing, and a "renew" line an older binary wrote still
// replays harmlessly.
func TestRenewWritesNoRecord(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(time.Unix(8000, 0))
	s := open(t, dir, Options{Clock: clk, CompactEvery: -1})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 3)
	l, _, _ := s.Lease("w", time.Minute)
	path := filepath.Join(dir, walName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	records := s.Records()
	for i := 0; i < 50; i++ {
		clk.Advance(time.Second)
		if _, err := s.Renew(j.ID, l.Fence, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Records() != records || after.Size() != before.Size() {
		t.Fatalf("50 renews: records %d -> %d, WAL %d -> %d bytes", records, s.Records(), before.Size(), after.Size())
	}
	if cur, _ := s.Get(j.ID); !cur.LeaseExpiry.Equal(clk.Now().Add(time.Minute)) {
		t.Fatalf("expiry = %v, want %v", cur.LeaseExpiry, clk.Now().Add(time.Minute))
	}
	s.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"renew","id":1,"fence":1,"exp":"2026-01-01T00:00:00Z"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2 := open(t, dir, Options{CompactEvery: -1})
	got, ok := s2.Get(j.ID)
	if !ok || got.Status != Queued || got.Fence != l.Fence || !got.LeaseExpiry.IsZero() {
		t.Fatalf("after an old renew line: %+v, %v", got, ok)
	}
}

// TestAutoCompactionBoundsRenewTraffic: a long-lived lease heartbeating
// forever must not grow the WAL without bound.
func TestAutoCompactionBoundsRenewTraffic(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{CompactEvery: 16})
	j, _ := s.Enqueue(json.RawMessage(`{}`), 3)
	l, _, _ := s.Lease("w", time.Minute)
	for i := 0; i < 200; i++ {
		if _, err := s.Renew(j.ID, l.Fence, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 8192 {
		t.Fatalf("WAL grew to %d bytes under renewal traffic", fi.Size())
	}
}

// TestLeaseConcurrentChaos hammers the store from concurrent workers with
// tiny TTLs, a reaper, and deliberate non-completers; every job must land
// in exactly one terminal state with no lost or doubly-completed jobs.
func TestLeaseConcurrentChaos(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	const jobs = 40
	for i := 0; i < jobs; i++ {
		if _, err := s.Enqueue(json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)), 100); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var reaper sync.WaitGroup
	reaper.Add(1)
	go func() {
		defer reaper.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				if _, err := s.ReapExpired(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var completions sync.Map // job ID → count of successful MarkDone calls
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for n := 0; ; n++ {
				j, wait, err := s.Lease(id, 5*time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				if j == nil {
					if s.Depth() == 0 && s.LeaseStats().Leased == 0 {
						return
					}
					d := wait
					if d <= 0 || d > 5*time.Millisecond {
						d = time.Millisecond
					}
					time.Sleep(d)
					continue
				}
				switch n % 3 {
				case 0:
					// Crash mid-solve: never report; the reaper reclaims.
					continue
				case 1:
					// Zombie: sit past the TTL, then attempt a stale write.
					time.Sleep(8 * time.Millisecond)
					err := s.MarkDone(j.ID, j.Fence, json.RawMessage(`"late"`))
					if err == nil {
						actual, _ := completions.LoadOrStore(j.ID, new(int))
						*(actual.(*int))++
					} else if !errors.Is(err, ErrStaleLease) {
						t.Errorf("late complete: %v", err)
						return
					}
				default:
					if err := s.MarkDone(j.ID, j.Fence, json.RawMessage(`"ok"`)); err != nil {
						if !errors.Is(err, ErrStaleLease) {
							t.Errorf("complete: %v", err)
							return
						}
						continue
					}
					actual, _ := completions.LoadOrStore(j.ID, new(int))
					*(actual.(*int))++
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reaper.Wait()

	counts := s.Counts()
	if counts[Done] != jobs || counts[Queued] != 0 || counts[Running] != 0 || counts[Failed] != 0 {
		t.Fatalf("final counts = %v", counts)
	}
	n := 0
	completions.Range(func(_, v interface{}) bool {
		if *(v.(*int)) != 1 {
			t.Fatalf("a job recorded %d successful completions", *(v.(*int)))
		}
		n++
		return true
	})
	if n != jobs {
		t.Fatalf("completed %d jobs, want %d", n, jobs)
	}
}
