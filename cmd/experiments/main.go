// Command experiments regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	experiments -exp table3      # Table III, all six blocks
//	experiments -exp fig2        # Figure 2 scaling curves + fits
//	experiments -exp fig3        # Figure 3 human vs HSLB at 1/8°
//	experiments -exp fig4        # Figure 4 layout comparison
//	experiments -exp claims      # §III-E solver claims (40960 nodes, SOS)
//	experiments -exp objectives  # §III-D objective ablation
//	experiments -exp mlice       # ML ice-decomposition extension [10]
//	experiments -exp cost        # cost of tuning itself (§II motivation)
//	experiments -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hslb/internal/cesm"
	"hslb/internal/core"
	"hslb/internal/experiments"
	"hslb/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table3, fig2, fig3, fig4, claims, objectives, mlice, cost, all")
	seed := flag.Int64("seed", 1, "machine noise seed")
	flag.Parse()

	runners := map[string]func(int64) error{
		"table3":     runTable3,
		"fig2":       runFig2,
		"fig3":       runFig3,
		"fig4":       runFig4,
		"claims":     runClaims,
		"objectives": runObjectives,
		"mlice":      runMLIce,
		"cost":       runCost,
	}
	order := []string{"table3", "fig2", "fig3", "fig4", "claims", "objectives", "mlice", "cost"}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](*seed); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", name, ":", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	fn, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := fn(*seed); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func runTable3(seed int64) error {
	results, err := experiments.RunTable3(seed)
	if err != nil {
		return err
	}
	experiments.Table3Report(results).Render(os.Stdout)
	return nil
}

func runFig2(seed int64) error {
	f, err := experiments.RunFig2(seed)
	if err != nil {
		return err
	}
	f.Chart().Render(os.Stdout)
	fmt.Println()
	f.Table(104).Render(os.Stdout)
	return nil
}

func runFig3(seed int64) error {
	pts, err := experiments.RunFig3(seed)
	if err != nil {
		return err
	}
	experiments.Fig3Table(pts).Render(os.Stdout)
	return nil
}

func runFig4(seed int64) error {
	pts, r2, err := experiments.RunFig4(seed)
	if err != nil {
		return err
	}
	experiments.Fig4Chart(pts).Render(os.Stdout)
	fmt.Printf("\nlayout-1 predicted-vs-experiment R² = %.4f (paper: 1.0)\n", r2)
	return nil
}

func runClaims(seed int64) error {
	scale, err := experiments.RunSolveAtScale(40960, seed)
	if err != nil {
		return err
	}
	fmt.Printf("40960-node MINLP: %s (%d B&B nodes), allocation %v\n",
		scale.Elapsed.Round(time.Millisecond), scale.Decision.Nodes, scale.Decision.Alloc)
	sos, err := experiments.RunSOSAblation(512, seed, 200000)
	if err != nil {
		return err
	}
	experiments.ClaimsTable(scale, sos).Render(os.Stdout)
	return nil
}

func runObjectives(seed int64) error {
	r, err := experiments.RunObjectiveAblation(128, seed)
	if err != nil {
		return err
	}
	t := report.NewTable("Objective ablation (§III-D) — composed layout-1 total",
		"objective", "total s", "allocation")
	for _, obj := range []core.Objective{core.MinMax, core.MaxMin, core.MinSum} {
		t.AddRow(obj.String(), r.Totals[obj], r.Allocs[obj].String())
	}
	t.Render(os.Stdout)
	return nil
}

func runCost(seed int64) error {
	r, err := experiments.RunTuningCost(cesm.Res8thDeg, 32768, seed)
	if err != nil {
		return err
	}
	experiments.TuningCostTable(r).Render(os.Stdout)
	return nil
}

func runMLIce(seed int64) error {
	r, err := experiments.RunMLIce(seed)
	if err != nil {
		return err
	}
	t := report.NewTable("ML ice-decomposition chooser (ref [10]) — mean ice time on held-out counts",
		"chooser", "mean ice time s")
	t.AddRow("CICE default", r.Eval.DefaultTime)
	t.AddRow("k-NN learned", r.Eval.MLTime)
	t.AddRow("oracle", r.Eval.OracleTime)
	t.Render(os.Stdout)
	return nil
}
