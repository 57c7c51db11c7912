// Command benchmark is the repo's measuring stick: four workloads named
// after the paper's hot, warm and cold invocation paths, each driven through
// a real in-process deployment, every answer checked, six end-to-end metrics
// and a per-layer trace. See README.md for what each number means.
//
//	benchmark                                   all workloads, interleaved rounds, traced round, probes
//	benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (BENCHMARK.json contract)
//	benchmark -compare a.json b.json            apply BENCHMARK.json's bounds to two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric. The lists below are the program's
// side of BENCHMARK.json; the smoke test checks the two agree.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"throughput_rps", "1/s"},
	{"cpu_us_per_req", "us"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"setup_s", "s"},
}

// metric is one reported value: the median over rounds, with the
// inter-quartile range and the per-round values beside it.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	IQR    float64   `json:"iqr,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadResult is one workload's row in a result file.
type workloadResult struct {
	Why    string `json:"why"`
	Ops    int    `json:"ops"`
	Failed int    `json:"failed"`
	// Reran counts rounds repeated because the open-loop generator ran late.
	Reran    int               `json:"reran"`
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// resultFile is what a run writes and -compare reads.
type resultFile struct {
	Env struct {
		NumCPU     int    `json:"nproc"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"env"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	// ModeledSleepShare is the share of measured time spent in modeled
	// sleeps: zero by construction (see platClock and buildWorld).
	ModeledSleepShare float64                    `json:"modeled_sleep_share"`
	Workloads         map[string]*workloadResult `json:"workloads"`
}

func newResultFile(seed int64, seconds float64) *resultFile {
	rf := &resultFile{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadResult{}}
	rf.Env.NumCPU = runtime.NumCPU()
	rf.Env.GoMaxProcs = runtime.GOMAXPROCS(0)
	rf.Env.GoVersion = runtime.Version()
	return rf
}

// ballastBytes of live heap are held for the whole run and stand for the
// models a real node keeps resident (Table I: 17-170 MB each). Without them
// the process's live heap is the harness's own 2-7 MB, Go's collector runs
// 100-250 times a second, and throughput follows whatever the harness happens
// to retain: hot_small rose from 48k to 60k req/s between the first and the
// fifth round of one process as retained results grew the heap goal from 5 to
// 14 MB. With the ballast the collector runs a few times a second in every
// round of every workload.
const ballastBytes = 64 << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 30, "seconds measured per workload, split over five rounds of open+sat")
	traceFlag := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	specPath := fs.String("spec", "BENCHMARK.json", "metric declarations and bounds used by -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return runCompare(*specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)
	ctx := context.Background()
	b := &bench{seed: *seed, seconds: *seconds, sizing: fullSizing(*seconds), outDir: *outDir, stdout: stdout, stderr: stderr, reruns: map[string]int{}}
	var err error
	if *workload == "all" {
		b.strict = true
		err = b.runAll(ctx)
	} else {
		sp := specByName(*workload)
		if sp == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		err = b.runOne(ctx, sp, *traceFlag != 0)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

type bench struct {
	seed    int64
	seconds float64
	sizing
	outDir string
	stdout io.Writer
	stderr io.Writer
	// reruns counts the rounds run again per workload; maxReruns caps it, so
	// that a noisy host cannot double a run's length.
	reruns map[string]int
	// strict makes an open loop that missed its arrival rate fail the run
	// (generatorKeptUp); set when every workload is run, not under the
	// one-workload contract.
	strict bool
}

const maxReruns = 2

// measureRound runs one round, and runs it once more if the open-loop
// generator fell behind: late Submits (lateness p99) or, what one stall at the
// very end of the phase does, an achieved rate under the target. Whether the
// generator keeps up at all is judged over the workload's rounds together
// (generatorKeptUp), not here: on a shared host single rounds do stall.
func (b *bench) measureRound(ctx context.Context, in *inputs, traced bool) (round, *tracer, error) {
	newTr := func() *tracer {
		if traced {
			return newTracer()
		}
		return nil
	}
	t := newTr()
	r, err := runRound(ctx, in, t, b.plan)
	if err != nil {
		return r, t, err
	}
	check := b.selfCheck && in.sp.openRate > 0
	if check && r.generatorLate(in.sp) && b.reruns[in.sp.name] < maxReruns {
		b.reruns[in.sp.name]++
		fmt.Fprintf(b.stderr, "%s: generator lateness p99 %.2f ms (limit %.1f ms), achieved %.1f/s of %.0f/s, running the round again\n",
			in.sp.name, quantile(r.open.lateMs, 0.99), lateLimitMs, r.open.rate, in.sp.openRate)
		t = newTr()
		if r, err = runRound(ctx, in, t, b.plan); err != nil {
			return r, t, err
		}
		r.reran = true
	}
	e := r.endToEnd()
	fmt.Fprintf(b.stderr, "%-12s %9.1f req/s %8.1f us cpu  p50 %7.3f p90 %7.3f ms  setup %.3f s  late p99 %.2f ms\n", in.sp.name,
		e["throughput_rps"], e["cpu_us_per_req"], e["lat_p50_ms"], e["lat_p90_ms"], e["setup_s"], quantile(r.open.lateMs, 0.99))
	return r, t, nil
}

// summarize folds a workload's rounds into its end-to-end metrics: each is
// the median of the rounds, IQR beside it.
func summarize(sp *spec, rs []round) *workloadResult {
	wr := &workloadResult{Why: sp.why, EndToEnd: map[string]metric{}}
	per := map[string][]float64{}
	for _, r := range rs {
		wr.Ops += r.open.ops + r.sat.ops
		wr.Failed += r.open.failed + r.sat.failed
		if r.reran {
			wr.Reran++
		}
		for name, v := range r.endToEnd() {
			per[name] = append(per[name], v)
		}
	}
	for _, d := range endToEndDefs {
		wr.EndToEnd[d.name] = metric{Value: median(per[d.name]), Unit: d.unit, IQR: iqr(per[d.name]), Rounds: per[d.name]}
	}
	return wr
}

func (r *round) endToEnd() map[string]float64 {
	satOps := float64(r.sat.ops)
	return map[string]float64{
		"throughput_rps":   ratio(satOps, r.sat.wall.Seconds()),
		"cpu_us_per_req":   ratio(float64(r.sat.cpu)/1e3, satOps),
		"lat_p50_ms":       quantile(r.open.latMs, 0.5),
		"lat_p90_ms":       quantile(r.open.latMs, 0.9),
		"alloc_kb_per_req": ratio(float64(r.sat.alloc)/1024, satOps),
		"setup_s":          r.setup.Seconds(),
	}
}

// generatorLate reports an open phase whose generator fell behind.
func (r *round) generatorLate(sp *spec) bool {
	return quantile(r.open.lateMs, 0.99) > lateLimitMs || r.open.rate < minRateFrac*sp.openRate
}

// generatorKeptUp is the workload-level self-check: the median over the rounds
// of the achieved arrival rate must reach minRateFrac of the target, or the
// open loop was not one. A run of every workload fails on it. A run of one
// workload under the BENCHMARK.json contract only says so on stderr (and
// reports loadgen.rate_frac with --trace 1): there the caller compares many
// runs and sees a disturbed one in their spread, the cause is the shared host
// being busy rather than this program (three busy loops beside the benchmark
// on two CPUs bring hot_compute's generator to 118.5/s of 120/s, late behind
// 6 ms kernels holding both Ps), and a non-zero exit would discard the set.
func (b *bench) generatorKeptUp(sp *spec, rs []round) error {
	if !b.selfCheck || sp.openRate == 0 {
		return nil
	}
	var rates []float64
	for _, r := range rs {
		rates = append(rates, r.open.rate)
	}
	got := median(rates)
	if got >= minRateFrac*sp.openRate {
		return nil
	}
	err := fmt.Errorf("%s: open loop achieved %.1f/s of %.0f/s (median of %d rounds): the generator is overloaded", sp.name, got, sp.openRate, len(rs))
	if !b.strict {
		fmt.Fprintln(b.stderr, "warning:", err)
		return nil
	}
	return err
}

// failures reports failed ops as an error for the workloads on which none may
// occur; warm_churn only reports them.
func failures(sp *spec, wr *workloadResult, rs []round) error {
	if wr.Failed == 0 || sp.name == "warm_churn" {
		return nil
	}
	for _, r := range rs {
		for _, p := range []*phaseResult{&r.open, &r.sat} {
			if p.err != nil {
				return fmt.Errorf("%s: %d failed ops, first: %w", sp.name, wr.Failed, p.err)
			}
		}
	}
	return fmt.Errorf("%s: %d failed ops", sp.name, wr.Failed)
}

// runOne is the BENCHMARK.json contract: one workload, and as the last line
// of standard output one JSON object with the end-to-end (trace off) or
// per-layer (trace on) metrics.
func (b *bench) runOne(ctx context.Context, sp *spec, traced bool) error {
	in, err := newInputs(sp, b.seed)
	if err != nil {
		return err
	}
	var wr *workloadResult
	if traced {
		wr, err = b.layers(ctx, in)
	} else {
		var rs []round
		for i := 0; i < b.rounds; i++ {
			r, _, err := b.measureRound(ctx, in, false)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		wr = summarize(sp, rs)
		if err = failures(sp, wr, rs); err == nil {
			err = b.generatorKeptUp(sp, rs)
		}
	}
	if err != nil {
		return err
	}
	rf := newResultFile(b.seed, b.seconds)
	rf.Workloads[sp.name] = wr
	b.printTable(rf)
	metrics := wr.EndToEnd
	if traced {
		metrics = wr.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Failed == 0, wr.Ops + wr.Failed, wr.Failed, map[string]metric{}}
	for name, m := range metrics {
		line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(b.stdout, string(out))
	return err
}

// runAll measures every workload in interleaved rounds (w1 w2 w3 w4, w1 …),
// so minute-scale drift of the shared host hits every workload equally, then
// takes each workload's traced round and probes.
func (b *bench) runAll(ctx context.Context) error {
	var ins []*inputs
	for _, sp := range specs {
		in, err := newInputs(sp, b.seed)
		if err != nil {
			return err
		}
		ins = append(ins, in)
	}
	byWorkload := make([][]round, len(ins))
	for i := 0; i < b.rounds; i++ {
		for k, in := range ins {
			r, _, err := b.measureRound(ctx, in, false)
			if err != nil {
				return err
			}
			byWorkload[k] = append(byWorkload[k], r)
		}
	}
	rf := newResultFile(b.seed, b.seconds)
	var firstErr error
	for k, in := range ins {
		wr := summarize(in.sp, byWorkload[k])
		if err := failures(in.sp, wr, byWorkload[k]); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := b.generatorKeptUp(in.sp, byWorkload[k]); err != nil && firstErr == nil {
			firstErr = err
		}
		lw, err := b.layers(ctx, in)
		if err != nil {
			return err
		}
		wr.PerLayer = lw.PerLayer
		rf.Workloads[in.sp.name] = wr
	}
	b.printTable(rf)
	path := filepath.Join(b.outDir, "result.json")
	if err := writeJSON(path, rf); err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "result written to %s\n", path)
	return firstErr
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric by name with its unit, ops and failed.
func (b *bench) printTable(rf *resultFile) {
	w := b.stdout
	fmt.Fprintf(w, "seed %d, %.0f s per workload in %d rounds of open+sat, nproc %d, GOMAXPROCS %d, %s, modeled_sleep_share = %g\n",
		rf.Seed, rf.Seconds, b.rounds, rf.Env.NumCPU, rf.Env.GoMaxProcs, rf.Env.GoVersion, rf.ModeledSleepShare)
	for _, sp := range specs {
		wr := rf.Workloads[sp.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: ops %d, failed %d, rounds rerun %d\n", sp.name, wr.Ops, wr.Failed, wr.Reran)
		for _, d := range endToEndDefs {
			if m, ok := wr.EndToEnd[d.name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %-6s (IQR %.4f)\n", d.name, m.Value, m.Unit, m.IQR)
			}
		}
		var names []string
		for name := range wr.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := wr.PerLayer[name]
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// layers takes a workload's per-layer metrics: one untraced reference round,
// one traced round, then the probes.
func (b *bench) layers(ctx context.Context, in *inputs) (*workloadResult, error) {
	sp := in.sp
	ref, _, err := b.measureRound(ctx, in, false)
	if err != nil {
		return nil, err
	}
	tr, trt, err := b.measureRound(ctx, in, true)
	if err != nil {
		return nil, err
	}
	open, sat := trt.analyze(tr.open.window), trt.analyze(tr.sat.window)
	path, err := trt.write(b.outDir, sp.name, b.seed, open, sat)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.stderr, "%s: %d spans recorded, trace written to %s\n", sp.name, len(trt.spans), path)
	// Ops and failures count both rounds; the end-to-end values of a traced
	// round are not reported.
	wr := summarize(sp, []round{ref, tr})
	wr.EndToEnd, wr.PerLayer = nil, map[string]metric{}
	if err := failures(sp, wr, []round{ref, tr}); err != nil {
		return nil, err
	}
	if err := b.generatorKeptUp(sp, []round{ref, tr}); err != nil {
		return nil, err
	}
	vals := tracedLayers(sp, trt, ref, tr, open, sat)
	pv, err := runProbes(ctx, in, b.sizing)
	if err != nil {
		return nil, err
	}
	for name, v := range pv {
		vals[name] = v
	}
	vals["tensor.share"] = ratio(vals["inference.exec_us"], ref.endToEnd()["cpu_us_per_req"])
	for _, d := range perLayerDefs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		wr.PerLayer[d.name] = metric{Value: v, Unit: d.unit}
	}
	return wr, nil
}
