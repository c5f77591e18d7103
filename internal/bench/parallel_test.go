package bench

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"hslb/internal/cesm"
)

// TestParallelGatherDeterministic: the gathered Data and the full
// FailureReport must be byte-identical across worker counts, even under a
// chaos fault plan where runs fail, retry and drop — scheduling must never
// leak into results.
func TestParallelGatherDeterministic(t *testing.T) {
	plan := &cesm.FaultPlan{
		Seed:      2,
		CrashProb: 0.12, HangProb: 0.04, CorruptProb: 0.04,
	}
	base := chaosCampaign(6, plan)

	run := func(workers int) (*Data, *FailureReport) {
		c := base
		c.Workers = workers
		data, report, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatalf("Workers=%d campaign aborted: %v", workers, err)
		}
		return data, report
	}

	seqData, seqReport := run(1)
	for _, workers := range []int{2, 8} {
		parData, parReport := run(workers)
		if !reflect.DeepEqual(seqData, parData) {
			t.Errorf("Workers=%d Data differs from sequential:\nseq %s\npar %s",
				workers, mustJSON(t, seqData), mustJSON(t, parData))
		}
		// Byte-identical, not just structurally equal: the report is what
		// operators diff between campaign runs.
		if sj, pj := mustJSON(t, seqReport), mustJSON(t, parReport); sj != pj {
			t.Errorf("Workers=%d FailureReport differs from sequential:\nseq %s\npar %s",
				workers, sj, pj)
		}
	}
}

// TestParallelGatherCheckpoint: a parallel campaign resumes from an
// incomplete head document whose entries are an out-of-plan-order subset
// of the runs (workers commit in completion order); it must execute
// exactly the missing runs and reproduce the same Data.
func TestParallelGatherCheckpoint(t *testing.T) {
	plan := &cesm.FaultPlan{Seed: 5, CrashProb: 0.1}
	c := chaosCampaign(11, plan)
	c.Workers = 8

	ref := c
	ref.Results, ref.CampaignID = openResults(t), "ref"
	first, firstReport, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := LoadGather(ref.Results, "ref")
	if err != nil {
		t.Fatal(err)
	}
	var subset []gatherEntry
	for i := len(doc.Entries) - 1; i >= 0; i -= 3 {
		subset = append(subset, doc.Entries[i])
	}

	c.Results, c.CampaignID = openResults(t), "cam"
	commitIncomplete(t, c, subset)
	second, report, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed != len(subset) || report.Completed != firstReport.Completed-len(subset) {
		t.Fatalf("resumed %d / completed %d, want %d / %d", report.Resumed, report.Completed,
			len(subset), firstReport.Completed-len(subset))
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed Data differs:\nfirst  %s\nsecond %s",
			mustJSON(t, first), mustJSON(t, second))
	}
}

// TestParallelGatherCancellation: cancelling the context stops a parallel
// campaign with ctx.Err, same as the sequential runner.
func TestParallelGatherCancellation(t *testing.T) {
	plan := &cesm.FaultPlan{Seed: 3, HangProb: 0.2}
	c := chaosCampaign(4, plan)
	c.Workers = 8
	c.RunLatency = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, _, err := c.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelGatherAbortsOnBadRun: a non-recoverable failure in one task
// must abort the whole campaign and surface as the campaign error — not be
// masked by the context.Canceled its cancellation inflicts on sibling
// tasks that were in flight at the time.
func TestParallelGatherAbortsOnBadRun(t *testing.T) {
	c := chaosCampaign(7, nil)
	c.Workers = 8
	c.RunLatency = time.Millisecond
	bad := c.NodeCounts[len(c.NodeCounts)-1]
	c.Allocate = func(res cesm.Resolution, layout cesm.Layout, total int) cesm.Allocation {
		if total == bad {
			// An allocation that exceeds the machine is a configuration
			// error the simulator rejects: non-recoverable.
			return cesm.Allocation{Atm: total * 2, Ocn: 2, Ice: 1, Lnd: 1}
		}
		return DefaultAllocation(res, layout, total)
	}
	_, _, err := c.RunContext(context.Background())
	if err == nil {
		t.Fatal("campaign succeeded despite a non-recoverable run failure")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("campaign reported a victim cancellation, not the root cause: %v", err)
	}
}

// TestRunLatencyDoesNotAffectData: RunLatency models machine wall-clock
// for benchmarking the gather stage; it must never change what is
// gathered.
func TestRunLatencyDoesNotAffectData(t *testing.T) {
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: []int{128, 256, 512, 1024},
		Seed:       9,
	}
	plain, _, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.RunLatency = time.Millisecond
	c.Workers = 4
	delayed, _, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, delayed) {
		t.Error("RunLatency changed the gathered data")
	}
}
