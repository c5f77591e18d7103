package bench

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/perf"
)

// fastRetry keeps test wall-clock low while still exercising the
// retry/backoff/timeout machinery.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
		RunTimeout:  50 * time.Millisecond,
	}
}

func chaosCampaign(seed int64, plan *cesm.FaultPlan) Campaign {
	return Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: perf.SamplingPlan(64, 2048, 6),
		Repeats:    2,
		Seed:       seed,
		Faults:     plan,
		Retry:      fastRetry(),
	}
}

func TestResilientRunSurvivesFaults(t *testing.T) {
	plan := &cesm.FaultPlan{
		Seed:      2,
		CrashProb: 0.12, HangProb: 0.04, CorruptProb: 0.04,
	}
	c := chaosCampaign(6, plan)
	data, report, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatalf("campaign aborted: %v", err)
	}
	if len(report.Faults) == 0 {
		t.Fatal("no faults recorded under a 20% failure plan")
	}
	if report.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	if report.Completed+report.Resumed != data.Runs {
		t.Fatalf("report completed %d + resumed %d != runs %d",
			report.Completed, report.Resumed, data.Runs)
	}
	// Every recorded fault must match the plan's deterministic roll.
	for _, ev := range report.Faults {
		f := plan.Roll(ev.Seed, ev.TotalNodes)
		if f.Kind.String() != ev.Kind {
			t.Errorf("event %+v disagrees with plan roll %v", ev, f.Kind)
		}
	}
	// And the full attempt history must be re-derivable from the plan:
	// for each (total, rep), attempts fail while the roll aborts the run
	// and stop at the first clean/outlier roll or MaxAttempts.
	wantFaults := 0
	wantDropped := 0
	for _, total := range c.NodeCounts {
		for rep := 0; rep < c.Repeats; rep++ {
			dropped := true
			for attempt := 0; attempt < c.Retry.MaxAttempts; attempt++ {
				k := plan.Roll(AttemptSeed(c.Seed, rep, attempt), total).Kind
				if k == cesm.FaultNone || k == cesm.FaultOutlier {
					dropped = false
					break
				}
				wantFaults++
			}
			if dropped {
				wantDropped++
			}
		}
	}
	if len(report.Faults) != wantFaults {
		t.Errorf("report has %d faults, plan predicts %d", len(report.Faults), wantFaults)
	}
	if len(report.Dropped) != wantDropped {
		t.Errorf("report has %d dropped runs, plan predicts %d", len(report.Dropped), wantDropped)
	}
	if got := data.Runs + wantDropped; got != len(c.NodeCounts)*c.Repeats {
		t.Errorf("runs %d + dropped %d != planned %d", data.Runs, wantDropped, len(c.NodeCounts)*c.Repeats)
	}
	// The surviving data must still fit.
	if _, err := data.FitAll(perf.FitOptions{}); err != nil {
		t.Fatalf("fits failed on surviving data: %v", err)
	}
}

func TestResilientRunFaultFreeMatchesLegacySeeds(t *testing.T) {
	// Attempt 0 must reproduce the historical seed formula so fault-free
	// campaigns return bit-identical data to the pre-resilience runner.
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: []int{128, 512},
		Repeats:    2,
		Seed:       9,
	}
	data, report, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Faults) != 0 || report.Retries != 0 || len(report.Dropped) != 0 {
		t.Fatalf("fault-free campaign reported failures: %+v", report)
	}
	a := DefaultAllocation(c.Resolution, c.Layout, 128)
	tm, err := cesm.Run(cesm.Config{
		Resolution: c.Resolution, Layout: c.Layout, TotalNodes: 128,
		Alloc: a, Seed: 9 + 1*1000003,
	})
	if err != nil {
		t.Fatal(err)
	}
	if data.Samples[cesm.ATM][1].Time != tm.Comp[cesm.ATM] {
		t.Fatalf("rep-1 sample %v != direct run %v", data.Samples[cesm.ATM][1].Time, tm.Comp[cesm.ATM])
	}
}

func TestInsufficientSamplesTyped(t *testing.T) {
	// Crash every run: all runs drop, leaving zero distinct counts.
	plan := &cesm.FaultPlan{Seed: 1, CrashProb: 1}
	c := chaosCampaign(3, plan)
	_, report, err := c.RunContext(context.Background())
	if !errors.Is(err, ErrInsufficientSamples) {
		t.Fatalf("err = %v, want ErrInsufficientSamples", err)
	}
	var ise *InsufficientSamplesError
	if !errors.As(err, &ise) {
		t.Fatalf("err %T is not *InsufficientSamplesError", err)
	}
	if ise.Need != MinDistinctCounts || ise.Distinct != 0 {
		t.Errorf("unexpected detail: %+v", ise)
	}
	if report == nil || len(report.Dropped) != len(c.NodeCounts)*c.Repeats {
		t.Errorf("dropped-run accounting missing: %+v", report)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := chaosCampaign(3, nil)
	if _, _, err := c.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRejectOutliers(t *testing.T) {
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: perf.SamplingPlan(64, 2048, 8),
		Repeats:    2,
		Seed:       21,
	}
	data, _, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Plant a gross outlier by hand: 6× the honest ATM time of sample 3.
	planted := data.Samples[cesm.ATM][3]
	data.Samples[cesm.ATM][3].Time *= 6
	before := len(data.Samples[cesm.ATM])

	rejected := data.RejectOutliers(4)
	found := false
	for _, r := range rejected {
		if r.Component == "atm" && r.Nodes == planted.Nodes {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted outlier not rejected; rejected = %+v", rejected)
	}
	if got := len(data.Samples[cesm.ATM]); got != before-countAtm(rejected) {
		t.Fatalf("samples %d -> %d with %d atm rejections", before, got, countAtm(rejected))
	}
	if distinctNodeCounts(data.Samples[cesm.ATM]) < MinDistinctCounts {
		t.Fatal("rejection dug below the distinct-count floor")
	}
	// Fits on the cleaned data must be good again.
	fits, err := data.FitAll(perf.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fits[cesm.ATM].R2 < 0.99 {
		t.Errorf("post-rejection ATM R² = %v", fits[cesm.ATM].R2)
	}
}

func countAtm(rs []RejectedSample) int {
	n := 0
	for _, r := range rs {
		if r.Component == "atm" {
			n++
		}
	}
	return n
}

func TestRejectOutliersKeepsFloor(t *testing.T) {
	// All samples at only 4 distinct counts: rejection must refuse to
	// drop a sample that would remove a distinct count entirely.
	data := &Data{Samples: map[cesm.Component][]perf.Sample{}}
	truth := cesm.TruthModel(cesm.Res1Deg, cesm.ATM)
	for _, n := range []int{32, 64, 128, 256} {
		data.Samples[cesm.ATM] = append(data.Samples[cesm.ATM],
			perf.Sample{Nodes: n, Time: truth.Eval(float64(n))},
			perf.Sample{Nodes: n, Time: truth.Eval(float64(n)) * 1.001},
		)
	}
	// Make both samples at n=256 massive outliers.
	data.Samples[cesm.ATM][6].Time *= 8
	data.Samples[cesm.ATM][7].Time *= 8
	data.RejectOutliers(4)
	if distinctNodeCounts(data.Samples[cesm.ATM]) < 4 {
		t.Fatalf("floor violated: %d distinct counts", distinctNodeCounts(data.Samples[cesm.ATM]))
	}
}

// TestCheckpointResume kills a campaign mid-flight (context cancellation
// once the result store holds five gather commits) and reruns it with the
// same store and campaign ID: the rerun must execute only the runs missing
// from the head document and produce byte-identical Data to an
// uninterrupted campaign with the same seed.
func TestCheckpointResume(t *testing.T) {
	base := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: perf.SamplingPlan(64, 2048, 6),
		Repeats:    2,
		Seed:       13,
	}

	// Uninterrupted reference.
	want, _, err := base.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted campaign: one worker with simulated machine latency per
	// run, so the kill lands while runs are still outstanding.
	rs := openResults(t)
	interrupted := base
	interrupted.Results, interrupted.CampaignID = rs, "cam"
	interrupted.Workers = 1
	interrupted.RunLatency = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for ctx.Err() == nil {
			if log, _ := rs.Log(GatherKey("cam"), 0); len(log) >= 5 {
				cancel()
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	_, _, err = interrupted.RunContext(ctx)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign err = %v, want context.Canceled", err)
	}

	head, err := LoadGather(rs, "cam")
	if err != nil {
		t.Fatal(err)
	}
	completedBefore := len(head.Entries)
	if head.Complete || completedBefore == 0 {
		t.Fatalf("head after the kill: complete=%v with %d entries", head.Complete, completedBefore)
	}

	// Resume. No committed run may be executed again.
	resumed := base
	resumed.Results, resumed.CampaignID = rs, "cam"
	got, report, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed != completedBefore {
		t.Fatalf("resumed %d runs, head document held %d", report.Resumed, completedBefore)
	}
	if report.Completed != len(base.NodeCounts)*base.Repeats-completedBefore {
		t.Fatalf("re-executed %d runs, want %d", report.Completed,
			len(base.NodeCounts)*base.Repeats-completedBefore)
	}

	// Byte-identical Data (samples, records, run count).
	wantJSON := mustJSON(t, struct {
		S map[cesm.Component][]perf.Sample
		R []RunRecord
		N int
	}{want.Samples, want.Records, want.Runs})
	gotJSON := mustJSON(t, struct {
		S map[cesm.Component][]perf.Sample
		R []RunRecord
		N int
	}{got.Samples, got.Records, got.Runs})
	if wantJSON != gotJSON {
		t.Fatalf("resumed Data differs from uninterrupted Data:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestCheckpointMismatch: an incomplete head written by a different plan
// resumes nothing; the campaign runs fresh and commits on top of the
// history, which keeps the foreign document.
func TestCheckpointMismatch(t *testing.T) {
	base := Campaign{
		Resolution: cesm.Res1Deg, Layout: cesm.Layout1,
		NodeCounts: []int{64, 128, 256, 512}, Seed: 2,
	}
	entries := gatheredEntries(t, base)
	for name, change := range map[string]func(*Campaign){
		"seed":        func(c *Campaign) { c.Seed = 3 },
		"truth-scale": func(c *Campaign) { c.TruthScale = map[cesm.Component]float64{cesm.OCN: 1.5} },
	} {
		t.Run(name, func(t *testing.T) {
			c := base
			c.Results, c.CampaignID = openResults(t), "cam"
			foreign := commitIncomplete(t, c, entries[:2])
			change(&c)
			_, report, err := c.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if report.Resumed != 0 || report.Completed != len(c.NodeCounts) {
				t.Fatalf("resumed %d / completed %d, want 0 / %d",
					report.Resumed, report.Completed, len(c.NodeCounts))
			}
			log, err := c.Results.Log(GatherKey("cam"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(log) != len(c.NodeCounts)+2 || log[len(log)-1].Hash != foreign.Hash {
				t.Fatalf("history has %d commits ending at %s, want %d ending at the foreign %s",
					len(log), log[len(log)-1].Hash, len(c.NodeCounts)+2, foreign.Hash)
			}
		})
	}
}

func TestDefaultAllocationTinyTotals(t *testing.T) {
	// Satellite: every component must get >= 1 node even on tiny
	// machines, and the result must satisfy the layout-1 constraints for
	// any total a coupled run accepts.
	for _, res := range []cesm.Resolution{cesm.Res1Deg, cesm.Res8thDeg} {
		for _, total := range []int{4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 33} {
			a := DefaultAllocation(res, cesm.Layout1, total)
			for _, comp := range cesm.OptimizedComponents {
				if a.Get(comp) < 1 {
					t.Errorf("res=%v total=%d: %v got %d nodes (alloc %v)",
						res, total, comp, a.Get(comp), a)
				}
			}
			cfg := cesm.Config{Resolution: res, Layout: cesm.Layout1, TotalNodes: total, Alloc: a}
			if err := cesm.ValidateConfig(cfg); err != nil {
				t.Errorf("res=%v total=%d: %v (alloc %v)", res, total, err, a)
			}
		}
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
