// Command benchmark is the repository's benchmark: the paper's Table III
// pipeline ladder run in-process, and three request-class workloads (cold,
// hit, mixed) run through a real hslbrouter in front of real hslbserver
// shards. It prints what a user waits for end to end and, in a separate
// traced run, what each layer of this repository contributes. README.md in
// this directory says why each workload and metric exists.
//
// Usage, from the repository root:
//
//	go run ./benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object per workload, the
// form BENCHMARK.json's driver reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "table3-pipeline, fleet-cold, fleet-hit, fleet-mixed, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is made from it")
	flag.IntVar(&cfg.seconds, "seconds", 15, "run length the operation counts are sized for, on the 2-CPU reference host")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and trace.json, not the end-to-end metrics")
	flag.IntVar(&cfg.basePort, "base-port", 39400, "the router listens on this loopback port and the shards on the three after it")
	regen := flag.Bool("regen-golden", false, "vet the candidate fit seeds in-process and rewrite benchmark/golden/corpus.json (about 8 s of CPU each); only for a change to the benchmark itself")
	flag.Parse()
	cfg.trace = *trace != 0
	if flag.NArg() > 0 || cfg.seconds < 1 || cfg.seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected argument, or -seconds outside 1…60")
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		// A signal must not leave shards behind: kill them first, then go.
		<-sig
		reapAll()
		os.Exit(130)
	}()
	defer func() {
		// A panic must not leave shards behind either.
		if r := recover(); r != nil {
			reapAll()
			panic(r)
		}
	}()
	code := 0
	if *regen {
		if err := regenGolden(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	} else {
		code = run(context.Background(), cfg)
	}
	reapAll()
	os.Exit(code)
}

// outDir holds every file a run leaves behind; git ignores it.
var outDir = filepath.Join("benchmark", "out")

func run(ctx context.Context, cfg config) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	corpus, err := loadCorpus(corpusPath())
	if err != nil {
		return fail(err)
	}
	cfg.draw = newDraw(corpus, cfg.seed)
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	} else if primaryClass[cfg.workload] == "" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	// table3-pipeline alone runs in this process; everything else, the probe
	// pass of a traced run included, needs the two binaries.
	bin, buildS := filepath.Join(outDir, "bin"), 0.0
	if cfg.trace || cfg.workload != wlTable3 {
		dur, err := buildBinaries(ctx, bin)
		if err != nil {
			return fail(err)
		}
		buildS = dur.Seconds()
	}
	// The probe pass is the same whatever the workload: one serves them all.
	var probes *probeResult
	if cfg.trace {
		if probes, err = probePass(ctx, cfg, bin); err != nil {
			return fail(fmt.Errorf("probe pass: %w", err))
		}
	}
	code := 0
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := runWorkload(ctx, c, bin, buildS, probes)
		if err == nil {
			err = rep.print()
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// report is everything one run of one workload measured.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Env      struct {
		NProc     int    `json:"nproc"`
		GoVersion string `json:"go_version"`
		GitSHA    string `json:"git_sha"`
	} `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics holds the end-to-end metrics of an untraced run, the
	// per-layer metrics of a traced one.
	Metrics map[string]metric `json:"metrics"`
}

// gitSHA is the revision stamped into the binary by "go build", or, under
// "go run", which stamps none, the checkout's HEAD.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown" // the driver's checkout is not a git repository
}

// print writes the metric table for a reader and then, as the last line,
// the one JSON object the driver parses.
func (r *report) print() error {
	fmt.Printf("# %s seed=%d seconds=%d traced=%v nproc=%d go=%s git=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Env.NProc, r.Env.GoVersion, r.Env.GitSHA)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-32s %16.6g %-6s n=%-7d %s\n", n, m.Value, m.Unit, m.N, m.From)
	}
	for _, f := range r.Failures {
		fmt.Println("# FAILED:", f)
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]driverMetric{}}
	for n, m := range r.Metrics {
		line.Metrics[n] = driverMetric{m.Value, m.Unit}
	}
	// A metric that is not a finite number (a probe that measured nothing)
	// does not encode: an error, not a result.
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// round is one set-up and the timed section that followed it.
type round struct {
	setupS float64
	sec    section
	as     assessment
}

// runRound sets the workload up with the content of the given round, runs its
// timed section, stops what the set-up started, and checks every answer.
func runRound(ctx context.Context, cfg config, tr *tracer, d dirs, content int) (round, error) {
	tr.setPhase("setup")
	t0 := time.Now()
	p, err := prepare(ctx, cfg, tr, d, content)
	if err != nil {
		return round{}, fmt.Errorf("set-up: %w", err)
	}
	defer p.close()
	rd := round{setupS: time.Since(t0).Seconds()}
	tr.setPhase("run")
	if rd.sec, err = p.timed(ctx, cfg, tr); err != nil {
		return round{}, err
	}
	rd.as = assess(rd.sec)
	return rd, nil
}

// tally adds a round's verdict to the report's.
func (r *report) tally(as assessment) {
	r.Attempted += as.attempted
	r.Failed += min(as.failed, as.attempted)
	r.Failures = append(r.Failures, as.failures...)
	r.Correct = r.Correct && as.failed == 0
}

// runWorkload runs one workload, untraced (three rounds, the end-to-end
// metrics) or traced (one round twice, the per-layer metrics), and leaves
// report.json beside the run's other files.
func runWorkload(ctx context.Context, cfg config, bin string, buildS float64, probes *probeResult) (*report, error) {
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Correct: true}
	rep.Env.NProc, rep.Env.GoVersion, rep.Env.GitSHA = runtime.NumCPU(), runtime.Version(), gitSHA()
	d := dirs{bin: bin, run: filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace)))}
	if err := os.RemoveAll(d.run); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(d.run, 0o755); err != nil {
		return nil, err
	}
	var err error
	if cfg.trace {
		err = rep.traced(ctx, cfg, d, buildS, probes)
	} else {
		err = rep.untraced(ctx, cfg, d)
	}
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(d.run, "report.json"), append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// untraced runs the rounds and fills in the end-to-end metrics.
func (r *report) untraced(ctx context.Context, cfg config, d dirs) error {
	var rs []round
	for i := 0; i < rounds; i++ {
		rd, err := runRound(ctx, cfg, nil, d, i)
		if err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
		r.tally(rd.as)
		rs = append(rs, rd)
	}
	r.Metrics = endToEnd(primaryClass[cfg.workload], rs)
	return nil
}

// endToEnd is the five metrics a user of the system sees. Every workload
// reports every one, and each is the median of its per-round values:
//
//   - setup_s: the round's set-up.
//   - wall_s: the duration of the round's timed section, every operation of
//     every class, stall and queue included.
//   - goodput_per_s: the section's correct operations ÷ its duration.
//   - op_typical_ms: the latency of the workload's primary class of
//     operation, each operation counted at the median of its rung (typical).
//   - op_mean_ms: the mean latency of the same operations, which their tail
//     moves and op_typical_ms does not see.
func endToEnd(primary string, rs []round) map[string]metric {
	var setupS, wallS, goodput, typicalMS, meanMS []float64
	ops, own := 0, 0
	for _, rd := range rs {
		correct := rd.as.attempted - min(rd.as.failed, rd.as.attempted)
		ops += correct
		own += len(rd.as.latencyMS[primary])
		setupS = append(setupS, rd.setupS)
		wallS = append(wallS, rd.sec.wallS)
		goodput = append(goodput, float64(correct)/rd.sec.wallS)
		typicalMS = append(typicalMS, typical(rd.as.byRung[primary]))
		meanMS = append(meanMS, mean(rd.as.latencyMS[primary]))
	}
	return map[string]metric{
		"setup_s":       {Value: median(setupS), Unit: "s", N: len(rs)},
		"wall_s":        {Value: median(wallS), Unit: "s", N: len(rs)},
		"goodput_per_s": {Value: median(goodput), Unit: "1/s", N: ops},
		"op_typical_ms": {Value: median(typicalMS), Unit: "ms", N: own},
		"op_mean_ms":    {Value: median(meanMS), Unit: "ms", N: own},
	}
}

// traced runs the first round's content twice — untraced, then traced, so
// that the two wall times differ by the tracing alone — and fills in every
// per-layer metric: the probe pass's value, replaced by the traced section's
// own wherever the section has operations of that kind.
func (r *report) traced(ctx context.Context, cfg config, d dirs, buildS float64, probes *probeResult) error {
	plain, err := runRound(ctx, cfg, nil, d, 0)
	if err != nil {
		return fmt.Errorf("untraced round: %w", err)
	}
	tr := newTracer()
	rd, err := runRound(ctx, cfg, tr, d, 0)
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	r.tally(rd.as)
	if len(probes.failures) > 0 {
		r.Correct = false
		r.Failures = append(r.Failures, probes.failures...)
	}

	m := map[string]metric{}
	for k, v := range probes.metrics {
		m[k] = v
	}
	if cfg.workload == wlTable3 {
		share := pipelineMetrics(m, tr, "run", rd.sec.wallS)
		if share < 0.98 || share > 1.02 {
			r.Correct = false
			r.Failures = append(r.Failures, fmt.Sprintf("the five stage spans sum to %.1f %% of wall_s %.3f s, not within 2 %%", share*100, rd.sec.wallS))
		}
	} else {
		fleetMetrics(m, rd.sec, rd.as)
	}
	correct := r.Attempted - r.Failed
	m["traced.wall_s"] = metric{Value: rd.sec.wallS, Unit: "s", N: 1}
	m["traced.goodput_per_s"] = metric{Value: float64(correct) / rd.sec.wallS, Unit: "1/s", N: correct}
	m["quality_gap"] = metric{Value: rd.as.qualityGap, Unit: "ratio", N: len(rd.as.predErr)}
	m["pred_err"] = metric{Value: mean(rd.as.predErr), Unit: "ratio", N: len(rd.as.predErr)}
	refs := tr.selected("oracle.reference", "setup")
	m["harness.reference_s"] = metric{Value: spanSeconds(refs), Unit: "s", N: len(refs)}
	m["harness.client_cpu_s"] = metric{Value: rd.sec.clientCPUS, Unit: "s", N: 1}
	m["harness.build_s"] = metric{Value: buildS, Unit: "s", N: 1}
	m["harness.trace_overhead_share"] = metric{Value: (rd.sec.wallS - plain.sec.wallS) / plain.sec.wallS, Unit: "ratio", N: 1}
	m["harness.corpus_drift"] = metric{Value: float64(len(cfg.draw.drifted)), Unit: "count", N: 1}
	r.Metrics = m
	return tr.write(filepath.Join(d.run, "trace.json"))
}
