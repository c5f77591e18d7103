package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"hslb/internal/cesm"
	"hslb/internal/perf"
	"hslb/internal/resultstore"
)

// Result-store integration: a campaign with Results set commits its
// gather document — the plan header plus every completed run — under
// "gather/<CampaignID>". Intermediate commits happen at checkpoint
// boundaries (each completed run), so a crashed campaign leaves a usable
// history; the final commit carries complete=true and a deterministic,
// plan-ordered entry list. The content-addressed store keeps each
// version whole, as one chunk, and shares only identical versions, so the
// history of a campaign of R runs costs about R × the mean document size.
// The head document is also the campaign's only durable record: see
// resumeEntries.

// gatherEntry is one completed run. Times are stored as exact
// round-tripping float64s (encoding/json uses the shortest representation
// that parses back bit-identically), so a resumed campaign reproduces the
// uninterrupted campaign's Data exactly.
type gatherEntry struct {
	Total    int                `json:"total"`
	Rep      int                `json:"rep"`
	Nodes    map[string]int     `json:"nodes"`
	Times    map[string]float64 `json:"times"`
	RunTotal float64            `json:"run_total"`
}

// runKey identifies one planned run.
type runKey struct{ total, rep int }

// GatherDoc is the committed form of a campaign's gathered data.
type GatherDoc struct {
	Resolution string             `json:"resolution"`
	Layout     int                `json:"layout"`
	Seed       int64              `json:"seed"`
	Repeats    int                `json:"repeats"`
	NodeCounts []int              `json:"node_counts"`
	TruthScale map[string]float64 `json:"truth_scale,omitempty"`
	Entries    []gatherEntry      `json:"entries"`
	Complete   bool               `json:"complete"`
}

// GatherKey is the result-store key of a campaign's gather history.
func GatherKey(campaignID string) string { return "gather/" + campaignID }

func (c Campaign) recordsResults() bool {
	return c.Results != nil && c.CampaignID != ""
}

// gatherDoc assembles the committed document from the entries completed
// so far, sorted into plan order so the document is independent of
// worker scheduling.
func (c Campaign) gatherDoc(entries []gatherEntry, repeats int, complete bool) GatherDoc {
	sorted := append([]gatherEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Total != sorted[j].Total {
			return sorted[i].Total < sorted[j].Total
		}
		return sorted[i].Rep < sorted[j].Rep
	})
	doc := GatherDoc{
		Resolution: c.Resolution.String(),
		Layout:     int(c.Layout),
		Seed:       c.Seed,
		Repeats:    repeats,
		NodeCounts: append([]int(nil), c.NodeCounts...),
		Entries:    sorted,
		Complete:   complete,
	}
	if len(c.TruthScale) > 0 {
		doc.TruthScale = map[string]float64{}
		for comp, f := range c.TruthScale {
			doc.TruthScale[comp.String()] = f
		}
	}
	return doc
}

// commitGather commits one version of the gather document.
func (c Campaign) commitGather(entries []gatherEntry, repeats int, complete bool) error {
	doc := c.gatherDoc(entries, repeats, complete)
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("bench: encode gather doc: %w", err)
	}
	meta := map[string]string{
		"runs":     strconv.Itoa(len(entries)),
		"complete": strconv.FormatBool(complete),
	}
	if _, err := c.Results.Commit(GatherKey(c.CampaignID), b, meta); err != nil {
		return fmt.Errorf("bench: commit gather doc: %w", err)
	}
	return nil
}

// resumeEntries returns the runs an interrupted earlier attempt of this
// campaign committed, keyed by run: the entries of the head gather
// document when that document is incomplete and was written by the same
// plan. No store, no head, a complete head or a different plan resumes
// nothing; the campaign then runs fresh and commits on top of the
// history.
func (c Campaign) resumeEntries(repeats int) (map[runKey]gatherEntry, error) {
	if !c.recordsResults() {
		return nil, nil
	}
	doc, err := LoadGather(c.Results, c.CampaignID)
	if errors.Is(err, resultstore.ErrNoKey) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("bench: resume: %w", err)
	}
	if doc.Complete || !samePlan(doc, c.gatherDoc(nil, repeats, false)) {
		return nil, nil
	}
	out := make(map[runKey]gatherEntry, len(doc.Entries))
	for _, e := range doc.Entries {
		out[runKey{e.Total, e.Rep}] = e
	}
	return out, nil
}

// samePlan reports whether two gather documents were written by the same
// campaign plan.
func samePlan(a, b GatherDoc) bool {
	return a.Resolution == b.Resolution && a.Layout == b.Layout && a.Seed == b.Seed &&
		a.Repeats == b.Repeats && slices.Equal(a.NodeCounts, b.NodeCounts) &&
		maps.Equal(a.TruthScale, b.TruthScale)
}

// LoadGather reads the head gather document of a campaign back from the
// result store.
func LoadGather(rs *resultstore.Store, campaignID string) (GatherDoc, error) {
	b, _, err := rs.HeadValue(GatherKey(campaignID))
	if err != nil {
		return GatherDoc{}, err
	}
	var doc GatherDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return GatherDoc{}, fmt.Errorf("bench: decode gather doc: %w", err)
	}
	return doc, nil
}

// truthScaleConfig copies the campaign's truth perturbation into a run
// config.
func (c Campaign) truthScaleConfig(cfg *cesm.Config) {
	if len(c.TruthScale) == 0 {
		return
	}
	cfg.TruthScale = c.TruthScale
}

// entryOf converts one completed run into its gather-document entry.
func entryOf(total, rep int, a cesm.Allocation, tm *cesm.Timing) gatherEntry {
	e := gatherEntry{
		Total:    total,
		Rep:      rep,
		Nodes:    map[string]int{},
		Times:    map[string]float64{},
		RunTotal: tm.Total,
	}
	for _, comp := range cesm.OptimizedComponents {
		e.Nodes[comp.String()] = a.Get(comp)
		e.Times[comp.String()] = tm.Comp[comp]
	}
	return e
}

// replayEntry appends a resumed run to the campaign data exactly as the
// live path would have.
func replayEntry(data *Data, e gatherEntry) {
	for _, comp := range cesm.OptimizedComponents {
		data.Samples[comp] = append(data.Samples[comp], perf.Sample{
			Nodes: e.Nodes[comp.String()],
			Time:  e.Times[comp.String()],
		})
	}
	data.Records = append(data.Records, RunRecord{TotalNodes: e.Total, Total: e.RunTotal})
	data.Runs++
}
