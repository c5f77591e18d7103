// Command hslb runs the Heuristic Static Load-Balancing pipeline for the
// simulated CESM machine: gather benchmark data, fit performance models,
// solve the MINLP allocation problem, and execute the chosen layout.
//
// Usage:
//
//	hslb -res 1deg -nodes 128                 # full pipeline at 1°, 128 nodes
//	hslb -res 0.125deg -nodes 32768 -free-ocn # lift the ocean constraint
//	hslb -res 1deg -nodes 512 -layout 2       # optimize layout 2
//	hslb -objective min-sum                   # alternative objective
//	hslb -res 1deg -nodes 512 -advise         # §IV-C node-count advice
//	hslb -res 1deg -nodes 128 -pelayout       # also emit env_mach_pes XML
//
// With -store-dir the run is committed into the content-addressed result
// store as campaign/<id>, and the store subcommands inspect the history:
//
//	hslb -nodes 128 -store-dir /var/hslb -campaign base
//	hslb -nodes 128 -store-dir /var/hslb -campaign slow-ocn -truth-scale ocn=1.5
//	hslb log  -store-dir /var/hslb                 # list keys / history
//	hslb diff -store-dir /var/hslb base slow-ocn   # explain the change
//	hslb fsck -store-dir /var/hslb                 # verify integrity
package main

import (
	"flag"
	"fmt"
	"os"

	"hslb/internal/bench"
	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/perf"
	"hslb/internal/report"
	"hslb/internal/resultstore"
)

func main() {
	err := dispatch()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hslb:", err)
		os.Exit(1)
	}
}

// dispatch routes the store subcommands (log, diff, fsck) and falls
// through to the pipeline for everything else.
func dispatch() error {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "log":
			return runLog(os.Args[2:])
		case "diff":
			return runDiff(os.Args[2:])
		case "fsck":
			return runFsck(os.Args[2:])
		}
	}
	return run()
}

func run() error {
	resFlag := flag.String("res", "1deg", "resolution: 1deg or 0.125deg")
	nodes := flag.Int("nodes", 128, "total nodes N to allocate")
	layoutFlag := flag.Int("layout", 1, "component layout 1-3 (Figure 1)")
	freeOcn := flag.Bool("free-ocn", false, "lift the hard-coded ocean node-count set")
	objFlag := flag.String("objective", "min-max", "objective: min-max, max-min or min-sum")
	syncTol := flag.Float64("sync-tol", 0, "land/ice synchronization tolerance in seconds (0 = off)")
	seed := flag.Int64("seed", 1, "machine noise seed")
	points := flag.Int("points", 6, "benchmark node counts to gather (>= 4)")
	repeats := flag.Int("repeats", 2, "benchmark repeats per node count")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	pelayout := flag.Bool("pelayout", false, "also print the env_mach_pes-style XML for the chosen allocation")
	advise := flag.Bool("advise", false, "sweep machine sizes and advise a node count (§IV-C) instead of optimizing one size")
	effThreshold := flag.Float64("eff", 0.7, "parallel-efficiency threshold for -advise")
	storeDir := flag.String("store-dir", "", "result store directory; the run is committed under campaign/<id> (see also: hslb log, diff, fsck)")
	campaignID := flag.String("campaign", "", "campaign ID for the result-store commit (default run-<seed>-<nodes>)")
	truthScaleFlag := flag.String("truth-scale", "", "perturb the machine's ground-truth times, e.g. ocn=1.5,atm=0.9")
	flag.Parse()

	res, err := parseResolution(*resFlag)
	if err != nil {
		return err
	}
	layout, err := parseLayout(*layoutFlag)
	if err != nil {
		return err
	}
	objective, err := parseObjective(*objFlag)
	if err != nil {
		return err
	}

	truthScale, err := parseTruthScale(*truthScaleFlag)
	if err != nil {
		return err
	}

	minN, maxN := 32, 2048
	if res == cesm.Res8thDeg {
		minN, maxN = 1024, 32768
	}
	if *nodes > maxN {
		maxN = *nodes
	}

	var rs *resultstore.Store
	id := *campaignID
	if *storeDir != "" {
		rs, err = openStore(*storeDir)
		if err != nil {
			return err
		}
		defer rs.Close()
		if id == "" {
			id = fmt.Sprintf("run-%d-%d", *seed, *nodes)
		}
	} else if id != "" {
		return fmt.Errorf("-campaign requires -store-dir")
	}

	po := core.PipelineOptions{
		Campaign: bench.Campaign{
			Resolution: res,
			Layout:     layout,
			NodeCounts: perf.SamplingPlan(minN, maxN, *points),
			Repeats:    *repeats,
			Seed:       *seed,
			TruthScale: truthScale,
			Results:    rs,
			CampaignID: id,
		},
		Spec: core.Spec{
			Resolution:     res,
			Layout:         layout,
			TotalNodes:     *nodes,
			Objective:      objective,
			SyncTol:        *syncTol,
			ConstrainOcean: !*freeOcn,
			ConstrainAtm:   true,
		},
		Fit:         perf.FitOptions{ConvexExponent: true},
		Solver:      core.SolverOptions(),
		ExecuteSeed: *seed + 100,
	}
	if *advise {
		return runAdvise(po, *effThreshold)
	}

	pr, err := core.RunPipeline(po)
	if err != nil {
		return err
	}

	fmt.Printf("HSLB pipeline: %s, layout %d, N=%d, objective %s\n\n",
		res, *layoutFlag, *nodes, objective)

	fitT := report.NewTable("Step 2 — fitted performance models",
		"component", "a", "b", "c", "d", "R2")
	for _, c := range cesm.OptimizedComponents {
		f := pr.Fits[c]
		fitT.AddRow(c.String(), f.Model.A, f.Model.B, f.Model.C, f.Model.D, f.R2)
	}

	dec := pr.Decision
	decT := report.NewTable("Step 3/4 — allocation, predicted and actual times",
		"component", "nodes", "predicted s", "actual s")
	for _, c := range cesm.OptimizedComponents {
		decT.AddRow(c.String(), dec.Alloc.Get(c), dec.PredictedComp[c], pr.Execution.Comp[c])
	}
	decT.AddSeparator()
	decT.AddRow("TOTAL", *nodes, dec.PredictedTime, pr.Execution.Total)

	if *csv {
		fitT.CSV(os.Stdout)
		fmt.Println()
		decT.CSV(os.Stdout)
	} else {
		fitT.Render(os.Stdout)
		fmt.Println()
		decT.Render(os.Stdout)
		fmt.Printf("\nsolver: %s, %d B&B nodes, %d NLP solves, %d OA cuts\n",
			pr.Quality.SolvePath, dec.Nodes, dec.NLPSolves, dec.Cuts)
	}
	if *pelayout {
		pl, err := cesm.NewPELayout(layout, *nodes, dec.Alloc)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := pl.WriteXML(os.Stdout); err != nil {
			return err
		}
	}
	if rs != nil {
		rec, err := campaignRecord(id, po, pr)
		if err != nil {
			return err
		}
		c, err := commitCampaign(rs, rec)
		if err != nil {
			return err
		}
		fmt.Printf("\ncommitted campaign %s as %s (seq %d); compare runs with: hslb diff -store-dir %s <from> %s\n",
			id, shortHash(c.Hash), c.Seq, *storeDir, id)
	}
	return nil
}

// runAdvise runs the gather+fit steps once, then sweeps machine sizes.
func runAdvise(po core.PipelineOptions, effThreshold float64) error {
	data, err := po.Campaign.Run()
	if err != nil {
		return err
	}
	fits, err := data.FitAll(po.Fit)
	if err != nil {
		return err
	}
	spec := po.Spec
	spec.Perf = bench.Models(fits)
	var sizes []int
	for n := 64; n <= spec.TotalNodes; n *= 2 {
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 || sizes[len(sizes)-1] != spec.TotalNodes {
		sizes = append(sizes, spec.TotalNodes)
	}
	adv, err := core.AdviseNodeCount(spec, sizes, effThreshold)
	if err != nil {
		return err
	}
	t := report.NewTable("Node-count advice (§IV-C)",
		"nodes", "predicted s", "efficiency", "core-h / sim-year", "allocation")
	for _, p := range adv.Points {
		t.AddRow(p.TotalNodes, p.Predicted, p.Efficiency, p.CoreHoursPerSimYear, p.Alloc.String())
	}
	t.Render(os.Stdout)
	fmt.Printf("\nshortest time at %d nodes; cost-efficient (eff >= %.0f%%) at %d nodes\n",
		adv.ShortestTime, effThreshold*100, adv.CostEfficient)
	return nil
}

func parseResolution(s string) (cesm.Resolution, error) {
	switch s {
	case "1deg", "1":
		return cesm.Res1Deg, nil
	case "0.125deg", "1/8", "8th":
		return cesm.Res8thDeg, nil
	default:
		return 0, fmt.Errorf("unknown resolution %q (want 1deg or 0.125deg)", s)
	}
}

func parseLayout(n int) (cesm.Layout, error) {
	switch n {
	case 1:
		return cesm.Layout1, nil
	case 2:
		return cesm.Layout2, nil
	case 3:
		return cesm.Layout3, nil
	default:
		return 0, fmt.Errorf("layout must be 1, 2 or 3")
	}
}

func parseObjective(s string) (core.Objective, error) {
	switch s {
	case "min-max":
		return core.MinMax, nil
	case "max-min":
		return core.MaxMin, nil
	case "min-sum":
		return core.MinSum, nil
	default:
		return 0, fmt.Errorf("unknown objective %q", s)
	}
}
