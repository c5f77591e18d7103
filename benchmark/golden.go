package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/neos"
	"hslb/internal/perf"
)

// The golden file, benchmark/golden/corpus.json, is the frozen list of fit
// seeds the workloads draw from. A fit seed is one gather campaign; the
// models fitted from it give one instance per rung. At the commit that froze
// the list, 63 of the 170 candidates gave some rung the benchmark cannot run
// on: on 17 a solver calls optimal an answer more than 2e-4 above the exact
// optimum — a workload must be one on which no operation fails — and on 46 a
// solve is correct but its tree grows past a thousand nodes, one and a half
// seconds through AMPL and up to half a minute, which is a whole round spent
// on one request. Both kinds are recorded with the reason, as reproducers. A
// workload seed picks its fit seeds from the kept list; a run never re-derives
// the list from the solver it measures. Each kept seed carries a digest of
// its fitted models, so a later change to gather or fit that alters the
// instances shows as drift rather than as unexplained failures.
type corpusFile struct {
	// The limits the candidates were held to, and how many there were: fit
	// seeds 1…Scanned.
	MaxNodes int            `json:"max_nodes"`
	MaxGap   float64        `json:"max_gap"`
	Scanned  int            `json:"scanned"`
	FitSeeds []keptSeed     `json:"fit_seeds"`
	Rejected []rejectedSeed `json:"rejected"`
}

// keptSeed is a fit seed on which every solve was clean, with a digest of the
// models fitted from it per resolution ("1deg", "0.125deg").
type keptSeed struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

type rejectedSeed struct {
	Seed int64  `json:"seed"`
	Why  string `json:"why"`
}

// What -regen-golden vets: fit seeds 1…vetCandidates, each held to
// vetMaxNodes and vetMaxGap on every rung, by the library and through AMPL.
const (
	vetCandidates = 170
	vetMaxNodes   = 1000
	vetMaxGap     = qualityTol
)

func corpusPath() string { return filepath.Join("benchmark", "golden", "corpus.json") }

func loadCorpus(path string) (*corpusFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (the file is committed: restore it)", err)
	}
	var c corpusFile
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.FitSeeds) == 0 {
		return nil, fmt.Errorf("%s lists no fit seeds", path)
	}
	return &c, nil
}

// draw is the workload seed's choice among the kept fit seeds: a seeded
// shuffle, so that slot i of one workload seed and slot i of another are
// unrelated, and two slots of one run never coincide.
type draw struct {
	corpus *corpusFile
	order  []int
	// drifted holds the fitted models ("<fit seed> <resolution>") whose digest
	// differs from the golden file's.
	drifted map[string]bool
}

func newDraw(c *corpusFile, seed int64) *draw {
	return &draw{corpus: c, order: rand.New(rand.NewSource(seed)).Perm(len(c.FitSeeds)), drifted: map[string]bool{}}
}

// ladder poses the rungs from the fit seed in slot i of the draw, and notes
// the resolutions whose fitted models no longer match the golden digest.
func (d *draw) ladder(tr *tracer, rungs []rung, i int) ([]*instance, error) {
	if i >= len(d.order) {
		return nil, fmt.Errorf("the golden file keeps %d fit seeds and slot %d was asked for", len(d.order), i)
	}
	kept := d.corpus.FitSeeds[d.order[i]]
	insts, digests, err := ladder(tr, rungs, kept.Seed)
	for res, got := range digests {
		if got != kept.Digests[res] {
			d.drifted[fmt.Sprintf("%d %s", kept.Seed, res)] = true
		}
	}
	return insts, err
}

// fleetCorpus returns the eleven fleet rungs for each of n slots from first.
func (d *draw) fleetCorpus(tr *tracer, first, n int) ([]*instance, error) {
	var out []*instance
	for i := 0; i < n; i++ {
		l, err := d.ladder(tr, fleetRungs, first+i)
		if err != nil {
			return nil, err
		}
		out = append(out, l...)
	}
	return out, nil
}

// modelDigest fingerprints the models fitted for one resolution.
func modelDigest(models map[cesm.Component]perf.Model) string {
	h := sha256.New()
	for _, c := range cesm.OptimizedComponents {
		m := models[c]
		fmt.Fprintf(h, "%v:%x,%x,%x,%x;", c, m.A, m.B, m.C, m.D)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// vet solves every rung of one fit seed both ways and returns "" when every
// solve is clean, or what disqualifies the seed.
func vet(ctx context.Context, seed int64) (digests map[string]string, why string, err error) {
	insts, digests, err := ladder(nil, allRungs, seed)
	if err != nil {
		return nil, "", err
	}
	for _, in := range insts {
		r := in.rung
		judge := func(path string, nodes int, objective float64, status string) string {
			switch gap := (objective - in.ref) / in.ref; {
			case status != "optimal":
				return fmt.Sprintf("%s via %s: status %s", r.name, path, status)
			case nodes > vetMaxNodes:
				return fmt.Sprintf("%s via %s: %d nodes", r.name, path, nodes)
			case gap > vetMaxGap:
				return fmt.Sprintf("%s via %s: %.2e above the exact optimum", r.name, path, gap)
			}
			return ""
		}
		sctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		d, err := core.SolveAllocationContext(sctx, in.spec, core.SolverOptions())
		cancel()
		if err != nil {
			return digests, fmt.Sprintf("%s via library: %v", r.name, err), nil
		}
		if why := judge("library", d.Nodes, d.PredictedTime, d.Status.String()); why != "" {
			return digests, why, nil
		}
		if r == rung1deg {
			continue // no fleet corpus poses the constrained 1° rung
		}
		sctx, cancel = context.WithTimeout(ctx, 20*time.Second)
		resp := neos.ExecuteRequest(sctx, in.req, 1)
		cancel()
		objective := 0.0
		if alloc, err := allocFromVariables(resp.Variables); err == nil {
			objective, _ = core.PredictTotal(in.spec, alloc)
		}
		if why := judge("AMPL", resp.Nodes, objective, resp.Status); why != "" {
			return digests, why, nil
		}
	}
	return digests, "", nil
}

// regenGolden vets fit seeds 1…vetCandidates, two at a time, and rewrites the
// golden file. Node counts and objectives do not depend on timing, so at the
// commit that froze the list it writes the committed file again, on any host.
// After a change to the solvers it writes another list, and numbers measured
// on the two lists do not compare: it belongs in a change that touches the
// benchmark alone and measures the baseline again.
func regenGolden(ctx context.Context) error {
	type result struct {
		digests map[string]string
		why     string
		err     error
	}
	results := make([]result, vetCandidates+1)
	var wg sync.WaitGroup
	next := make(chan int64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range next {
				r := &results[seed]
				r.digests, r.why, r.err = vet(ctx, seed)
				fmt.Fprintf(os.Stderr, "fit seed %d: %v %s\n", seed, r.err, r.why)
			}
		}()
	}
	for seed := int64(1); seed <= vetCandidates; seed++ {
		next <- seed
	}
	close(next)
	wg.Wait()

	c := corpusFile{MaxNodes: vetMaxNodes, MaxGap: vetMaxGap, Scanned: vetCandidates}
	for seed := int64(1); seed <= vetCandidates; seed++ {
		switch r := results[seed]; {
		case r.err != nil:
			return fmt.Errorf("fit seed %d: %w", seed, r.err)
		case r.why != "":
			c.Rejected = append(c.Rejected, rejectedSeed{seed, r.why})
		default:
			c.FitSeeds = append(c.FitSeeds, keptSeed{seed, r.digests})
		}
	}
	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(corpusPath()), 0o755); err != nil {
		return err
	}
	return os.WriteFile(corpusPath(), append(data, '\n'), 0o644)
}
