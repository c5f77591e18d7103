package main

import (
	"bytes"
	"strings"
	"testing"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/perf"
	"hslb/internal/resultstore"
)

// runAndCommit runs the full pipeline at a fixed seed with an optional
// truth perturbation and commits the outcome under campaign/<id>.
func runAndCommit(t *testing.T, rs *resultstore.Store, id string, scale map[cesm.Component]float64) resultstore.CampaignRecord {
	t.Helper()
	po := core.PipelineOptions{
		Campaign: bench.Campaign{
			Resolution: cesm.Res1Deg,
			Layout:     cesm.Layout1,
			NodeCounts: []int{32, 48, 64, 128, 256},
			Repeats:    1,
			Seed:       7,
			TruthScale: scale,
			Results:    rs,
			CampaignID: id,
		},
		Spec: core.Spec{
			Resolution:     cesm.Res1Deg,
			Layout:         cesm.Layout1,
			TotalNodes:     128,
			Objective:      core.MinMax,
			ConstrainOcean: true,
			ConstrainAtm:   true,
		},
		Solver:      core.SolverOptions(),
		ExecuteSeed: 107,
	}
	pr, err := core.RunPipeline(po)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := campaignRecord(id, po, pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := commitCampaign(rs, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestDiffTwoCampaignsDeterministic is the acceptance scenario: two
// fixed-seed campaigns — the second on a machine whose ocean truth
// function slowed down — are committed to one store, and `hslb diff`
// between them prints the objective delta and per-component allocation
// changes, byte-identically on every render and across a store reopen.
func TestDiffTwoCampaignsDeterministic(t *testing.T) {
	dir := t.TempDir()
	rs, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runAndCommit(t, rs, "base", nil)
	runAndCommit(t, rs, "slow-ocn", map[cesm.Component]float64{cesm.OCN: 2.0})
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	render := func() string {
		rs, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		from, err := loadCampaign(rs, "base")
		if err != nil {
			t.Fatal(err)
		}
		to, err := loadCampaign(rs, "slow-ocn")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		resultstore.DiffCampaigns(from, to).Format(&buf)
		return buf.String()
	}

	first := render()
	t.Logf("diff output:\n%s", first)
	for i := 0; i < 2; i++ {
		if again := render(); again != first {
			t.Fatalf("diff render %d differs:\n--- first\n%s\n--- again\n%s", i, first, again)
		}
	}

	for _, want := range []string{
		"campaign diff: base -> slow-ocn",
		"objective:",
		"truth functions perturbed: ocn ×1 -> ×2",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("diff output missing %q:\n%s", want, first)
		}
	}
	// A 2x slower ocean must change the predicted objective, and the diff
	// must explain the change per component (allocation and/or fits).
	if strings.Contains(first, "  no change") {
		t.Fatalf("diff reports no change between perturbed campaigns:\n%s", first)
	}
	if !strings.Contains(first, "allocation:") && !strings.Contains(first, "fit parameters:") {
		t.Fatalf("diff has no per-component explanation:\n%s", first)
	}
}

// TestLoadCampaignRefs exercises ref resolution: bare campaign ID, full
// store key, and unique commit-hash prefix all resolve to the same record.
func TestLoadCampaignRefs(t *testing.T) {
	dir := t.TempDir()
	rs, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	rec := resultstore.CampaignRecord{
		ID: "demo", Resolution: "1deg", Layout: 1, TotalNodes: 64,
		Objective: "min-max", ObjectiveSeconds: 3.5,
		Nodes:   map[string]int{"atm": 32},
		Threads: map[string]int{"atm": 128},
		Fits:    map[string]resultstore.FitParams{},
	}
	c, err := commitCampaign(rs, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"demo", campaignKey("demo"), c.Hash, c.Hash[:8]} {
		got, err := loadCampaign(rs, ref)
		if err != nil {
			t.Fatalf("loadCampaign(%q): %v", ref, err)
		}
		if got.ID != "demo" || got.ObjectiveSeconds != 3.5 {
			t.Fatalf("loadCampaign(%q) = %+v", ref, got)
		}
	}
	if _, err := loadCampaign(rs, "no-such-campaign"); err == nil {
		t.Fatal("unknown ref resolved")
	}
}

func TestParseTruthScale(t *testing.T) {
	got, err := parseTruthScale("ocn=1.5, atm=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if got[cesm.OCN] != 1.5 || got[cesm.ATM] != 0.9 || len(got) != 2 {
		t.Fatalf("parseTruthScale = %v", got)
	}
	if got, err := parseTruthScale(""); err != nil || got != nil {
		t.Fatalf("empty scale = %v, %v", got, err)
	}
	for _, bad := range []string{"cpl=2", "ocn", "ocn=-1", "ocn=0", "ocn=fast"} {
		if _, err := parseTruthScale(bad); err == nil {
			t.Errorf("parseTruthScale(%q) accepted", bad)
		}
	}
}

// TestModelDigestStability: identical specs share a digest and a changed
// node budget changes it, under every objective, so `hslb diff` reports
// the model of two such campaigns as changed.
func TestModelDigestStability(t *testing.T) {
	for _, obj := range []core.Objective{core.MinMax, core.MaxMin, core.MinSum} {
		spec := core.Spec{
			Resolution: cesm.Res1Deg, Layout: cesm.Layout1, TotalNodes: 128,
			Objective: obj, ConstrainOcean: true, ConstrainAtm: true,
			Perf: map[cesm.Component]perf.Model{},
		}
		for _, c := range cesm.OptimizedComponents {
			spec.Perf[c] = perf.Model{A: 100, B: 0.5, C: 1.2, D: 0.1}
		}
		d1, err := modelDigest(spec)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := modelDigest(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 || len(d1) != 64 {
			t.Fatalf("%v: digest unstable: %q vs %q", obj, d1, d2)
		}
		spec.TotalNodes = 256
		d3, err := modelDigest(spec)
		if err != nil {
			t.Fatal(err)
		}
		diff := resultstore.DiffCampaigns(resultstore.CampaignRecord{ModelDigest: d1}, resultstore.CampaignRecord{ModelDigest: d3})
		if !diff.ModelChanged {
			t.Fatalf("%v: digest ignored a node-budget change", obj)
		}
	}
}
