// Command perfbench runs one workload of the FRaC benchmark: it generates a
// cohort, writes and reads it as TSV, trains full FRaC, scores offline,
// runs the paper's variant sweep, saves and mounts the model, and serves a
// fixed request stream, timing each call from outside the program and
// checking every output. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload snp --seed 1 --seconds 20 --trace 0
//
// --trace 1 reports the per-layer metrics from a traced pass instead of
// the end-to-end ones. --repeat N runs the workload N times in child
// processes (seeds seed … seed+N-1) and prints each end-to-end metric's
// spread. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from an untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"train_s", "s", "lower"},
	{"train_cpu_s", "s", "lower"},
	{"score_rows_per_s", "1/s", "higher"},
	{"variants_s", "s", "lower"},
	{"variants_cpu_s", "s", "lower"},
	{"auc_full", "auc", "higher"},
	{"auc_variants", "auc", "higher"},
	{"model_mb", "MB", "lower"},
	{"save_ms", "ms", "lower"},
	{"load_ms", "ms", "lower"},
	{"serve_p50_ms", "ms", "lower"},
	{"serve_p99_ms", "ms", "lower"},
	{"explain_p50_ms", "ms", "lower"},
	{"serve_rows_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, from a traced pass.
var perLayer = []metricDef{
	{"synth.generate_s", "s", "lower"},
	{"dataset.write_s", "s", "lower"},
	{"dataset.read_s", "s", "lower"},
	{"core.train.phase_s", "s", "lower"},
	{"core.train.term_mean_ms", "ms", "lower"},
	{"core.train.term_max_ms", "ms", "lower"},
	{"core.train.terms", "count", "lower"},
	{"core.train.masked_terms", "count", "higher"},
	{"core.train.gather_terms", "count", "lower"},
	{"core.design_cache_mb", "MB", "lower"},
	{"parallel.pool_wait_p50_ms", "ms", "lower"},
	{"parallel.pool_wait_p99_ms", "ms", "lower"},
	{"parallel.busy_frac", "ratio", "higher"},
	{"svm.cpu_s", "s", "lower"},
	{"linalg.cpu_s", "s", "lower"},
	{"tree.cpu_s", "s", "lower"},
	{"jl.cpu_s", "s", "lower"},
	{"stats.cpu_s", "s", "lower"},
	{"core.cpu_s", "s", "lower"},
	{"core.score.phase_s", "s", "lower"},
	{"core.score.term_mean_us", "us", "lower"},
	{"core.score_rows_into_us.single", "us", "lower"},
	{"core.score_rows_into_us.bulk", "us", "lower"},
	{"variants.entropy_filter_s", "s", "lower"},
	{"variants.random_ensemble_s", "s", "lower"},
	{"variants.diverse_s", "s", "lower"},
	{"variants.diverse_ensemble_s", "s", "lower"},
	{"variants.jl_s", "s", "lower"},
	{"core.filter_s", "s", "lower"},
	{"core.project_s", "s", "lower"},
	{"core.combine_s", "s", "lower"},
	{"variants.entropy_filter_auc", "auc", "higher"},
	{"variants.random_ensemble_auc", "auc", "higher"},
	{"variants.diverse_auc", "auc", "higher"},
	{"variants.diverse_ensemble_auc", "auc", "higher"},
	{"variants.jl_auc", "auc", "higher"},
	{"persist.write_calls", "count", "lower"},
	{"persist.read_calls", "count", "lower"},
	{"persist.save_mb_per_s", "MB/s", "higher"},
	{"persist.load_mb_per_s", "MB/s", "higher"},
	{"binio.cpu_s", "s", "lower"},
	{"syscall.cpu_s", "s", "lower"},
	{"serve.transport_us.single", "us", "lower"},
	{"serve.transport_us.bulk", "us", "lower"},
	{"serve.explain_extra_us", "us", "lower"},
	{"json.cpu_s", "s", "lower"},
	{"serve.cpu_s", "s", "lower"},
	{"serve.alloc_kb_per_request", "KB", "lower"},
	{"serve.flushes", "count", "lower"},
	{"drift.cpu_s", "s", "lower"},
	{"drift.samples", "count", "higher"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_pause_p99_us", "us", "lower"},
	{"trace.train_overhead_pct", "%", "lower"},
	{"trace.serve_p50_overhead_pct", "%", "lower"},
}

// referenceSeconds is the run length the workloads' counts are sized for;
// --seconds scales every count by seconds/referenceSeconds.
const referenceSeconds = 50

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: snp or serve")
	seed := fs.Uint64("seed", 1, "seed of the generated cohort and request stream")
	seconds := fs.Int("seconds", referenceSeconds, "run length the work counts are scaled to (counts, never a clock)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	repeat := fs.Int("repeat", 0, "run the workload this many times in child processes and print each end-to-end metric's spread")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's scratch files")
	smoke := fs.Bool("smoke", false, "tiny cohorts and counts, for testing the benchmark itself")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat > 0 {
		var child []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "repeat" && f.Name != "seed" {
				child = append(child, "--"+f.Name+"="+f.Value.String())
			}
		})
		return repeatRuns(*repeat, child, *seed, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *smoke {
		w = w.tiny()
	}
	w = w.scaled(float64(*seconds) / referenceSeconds)
	res, err := runWorkload(context.Background(), w, *seed, *workdir, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload in this process. Untraced, it makes one
// pass and reports the end-to-end metrics. Traced, it makes an untraced
// pass and then a traced one, reports the per-layer metrics of the traced
// pass, and the traced pass's overhead on train_s and serve_p50_ms.
func runWorkload(ctx context.Context, w workload, seed uint64, workdir string, traced bool, log io.Writer) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	plain := newRunner(w, seed, dir, nil, log)
	if err := plain.run(ctx); err != nil {
		return nil, err
	}
	final, defs := plain, endToEnd
	if traced {
		tr, err := newTracer(log)
		if err != nil {
			return nil, err
		}
		tp := newRunner(w, seed, dir, tr, log)
		err = tp.run(ctx)
		if ferr := tr.finish(tp); err == nil {
			err = ferr
		}
		if err != nil {
			return nil, err
		}
		if err := tr.fractions(ctx, tp); err != nil {
			return nil, err
		}
		tp.layer["trace.train_overhead_pct"] = 100 * (tp.metrics["train_s"]/plain.metrics["train_s"] - 1)
		tp.layer["trace.serve_p50_overhead_pct"] = 100 * (tp.metrics["serve_p50_ms"]/plain.metrics["serve_p50_ms"] - 1)
		tp.attempted += plain.attempted
		tp.opErrors = append(tp.opErrors, plain.opErrors...)
		tp.problems = append(tp.problems, plain.problems...)
		final, defs = tp, perLayer
	}

	values := final.metrics
	if traced {
		values = final.layer
	}
	res := &result{
		Attempted: final.attempted,
		Failed:    len(final.opErrors),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			final.check(false, "metric %s was not measured", d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, e := range final.opErrors {
		fmt.Fprintln(log, "perfbench: failed:", e)
	}
	for _, p := range final.problems {
		fmt.Fprintln(log, "perfbench: check:", p)
	}
	// Checks speak of the operations that succeeded; a failed operation
	// is counted in Failed, not here.
	res.Correct = len(final.problems) == 0
	return res, nil
}

// repeatRuns runs this binary n times with the child arguments and
// consecutive seeds, one run at a time, and prints,
// for each metric, the median, the quartiles (as Python's
// statistics.quantiles(values, n=4) gives them), the min–max range, and
// the interquartile range as a share of the median.
func repeatRuns(n int, child []string, seed uint64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	attempted, failed, incorrect := 0, 0, 0
	for i := 0; i < n; i++ {
		res, err := runChild(self, append(child, "--seed", fmt.Sprint(seed+uint64(i))), stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: run %d (seed %d):", i, seed+uint64(i))
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(stderr, " %s=%.5g", d.name, v.Value)
			}
		}
		fmt.Fprintln(stderr)
		attempted += res.Attempted
		failed += res.Failed
		if !res.Correct {
			incorrect++
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%d runs, seeds %d..%d: attempted %d, failed %d, incorrect runs %d\n",
		n, seed, seed+uint64(n)-1, attempted, failed, incorrect)
	fmt.Fprintf(stdout, "%-32s %-6s %12s %12s %12s %12s %12s %8s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, k := range names {
		v := values[k]
		med := median(v)
		q1, q3 := med, med
		if len(v) >= 2 {
			q1, q3 = exclusiveQuartiles(v)
		}
		lo, hi := quantile(v, 0), quantile(v, 1)
		fmt.Fprintf(stdout, "%-32s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%%\n",
			k, units[k], med, q1, q3, lo, hi, 100*math.Abs(q3-q1)/math.Abs(med))
	}
	if incorrect > 0 {
		return 1
	}
	return 0
}

// runChild runs one child benchmark process to completion, passing its
// standard error through, and parses its result line.
func runChild(self string, args []string, stderr io.Writer) (*result, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	// The child dies with this process, so an interrupted repeat leaves
	// no benchmark running behind it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &res, nil
}
