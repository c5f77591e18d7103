package bench

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"hslb/internal/cesm"
	"hslb/internal/resultstore"
)

func openResults(t *testing.T) *resultstore.Store {
	t.Helper()
	rs, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// gatheredEntries runs c into a scratch store and returns the entries of
// its complete gather document, in plan order.
func gatheredEntries(t *testing.T, c Campaign) []gatherEntry {
	t.Helper()
	c.Results, c.CampaignID = openResults(t), "ref"
	if _, _, err := c.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	doc, err := LoadGather(c.Results, "ref")
	if err != nil {
		t.Fatal(err)
	}
	return doc.Entries
}

// commitIncomplete commits entries, in the order given, as the incomplete
// head gather document of c's plan: what a campaign killed mid-flight
// leaves in the store.
func commitIncomplete(t *testing.T, c Campaign, entries []gatherEntry) resultstore.Commit {
	t.Helper()
	repeats := c.Repeats
	if repeats == 0 {
		repeats = 1
	}
	doc := c.gatherDoc(nil, repeats, false)
	doc.Entries = entries
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	commit, err := c.Results.Commit(GatherKey(c.CampaignID), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return commit
}

// TestCheckpointResumeCarriesResumedEntries: the first intermediate commit
// after a resume holds the resumed runs plus the fresh one, so a second
// crash loses none of them.
func TestCheckpointResumeCarriesResumedEntries(t *testing.T) {
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: []int{128, 256, 512, 1024},
		Seed:       11,
		Workers:    1,
	}
	entries := gatheredEntries(t, c)
	rs := openResults(t)
	c.Results, c.CampaignID = rs, "cam"
	commitIncomplete(t, c, entries[1:3])

	_, report, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed != 2 || report.Completed != 2 {
		t.Fatalf("resumed %d / completed %d, want 2 / 2", report.Resumed, report.Completed)
	}
	log, err := rs.Log(GatherKey("cam"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Newest first: final, two intermediate, the resumed document.
	if len(log) != 4 {
		t.Fatalf("history has %d commits, want 4", len(log))
	}
	b, err := rs.Value(log[2])
	if err != nil {
		t.Fatal(err)
	}
	var next GatherDoc
	if err := json.Unmarshal(b, &next); err != nil {
		t.Fatal(err)
	}
	// One worker runs the plan in order, so the first fresh run is at 128.
	if next.Complete || !reflect.DeepEqual(next.Entries, entries[:3]) {
		t.Fatalf("first commit after resume: complete=%v entries %s, want %s",
			next.Complete, mustJSON(t, next.Entries), mustJSON(t, entries[:3]))
	}
}

func TestCampaignCommitsGatherHistory(t *testing.T) {
	rs := openResults(t)
	c := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: []int{128, 256, 512, 1024},
		Seed:       11,
		Results:    rs,
		CampaignID: "cam-a",
		Workers:    1,
	}
	data, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	doc, err := LoadGather(rs, "cam-a")
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Complete {
		t.Fatal("head gather doc not marked complete")
	}
	if len(doc.Entries) != data.Runs {
		t.Fatalf("committed %d entries, campaign ran %d", len(doc.Entries), data.Runs)
	}
	for i := 1; i < len(doc.Entries); i++ {
		a, b := doc.Entries[i-1], doc.Entries[i]
		if a.Total > b.Total || (a.Total == b.Total && a.Rep >= b.Rep) {
			t.Fatalf("entries not in plan order: %+v before %+v", a, b)
		}
	}

	// One intermediate commit per run plus the final complete commit.
	log, err := rs.Log(GatherKey("cam-a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != data.Runs+1 {
		t.Fatalf("history has %d commits, want %d", len(log), data.Runs+1)
	}
	if log[0].Meta["complete"] != "true" {
		t.Fatalf("head meta = %v", log[0].Meta)
	}

	// Rerunning the identical plan commits identical documents: every value
	// chunk dedups against history, so only fresh commit metadata (new
	// parent pointers) hits the disk.
	before := rs.Stats()
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	after := rs.Stats()
	newBytes := after.NewBytes - before.NewBytes
	logical := after.LogicalBytes - before.LogicalBytes
	if after.DedupHits <= before.DedupHits {
		t.Fatal("identical rerun produced no dedup hits")
	}
	if newBytes*2 > logical {
		t.Fatalf("identical rerun stored %d of %d logical bytes; expected heavy dedup", newBytes, logical)
	}
}

func TestCampaignTruthScalePerturbsSamples(t *testing.T) {
	base := Campaign{
		Resolution: cesm.Res1Deg,
		Layout:     cesm.Layout1,
		NodeCounts: []int{128, 256, 512, 1024},
		Seed:       11,
	}
	scaled := base
	scaled.TruthScale = map[cesm.Component]float64{cesm.OCN: 1.5}

	d0, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := scaled.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range d1.Samples[cesm.OCN] {
		want := d0.Samples[cesm.OCN][i].Time * 1.5
		if diff := s.Time - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("scaled ocn sample %d = %v, want %v", i, s.Time, want)
		}
	}
	for i, s := range d1.Samples[cesm.ATM] {
		if s.Time != d0.Samples[cesm.ATM][i].Time {
			t.Fatalf("atm sample %d changed without a scale", i)
		}
	}
}
