package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"frac"
	"frac/internal/obs"
	"frac/internal/resource"
	"frac/internal/rng"
)

// tracer turns on the program's existing sinks for a traced pass — an
// obs.Recorder sampling every term, an instrumented compute pool,
// serve.Metrics, a CPU profile and runtime/metrics deltas — all from the
// benchmark's side. It adds no tracing to the program.
type tracer struct {
	rec    *obs.Recorder // training and offline scoring
	varRec *obs.Recorder // the variant sweep
	prof   bytes.Buffer
	log    io.Writer // human-readable breakdowns

	rt0     runtimeSample
	phaseRT map[string]runtimeSample // summed runtime deltas per phase

	// Offline scoring's share of rec, summed over the timed repetitions.
	scoreCount, scoreNs, termScoreCount, termScoreNs int64
}

func newTracer(log io.Writer) (*tracer, error) {
	t := &tracer{log: log, phaseRT: map[string]runtimeSample{}}
	t.rec, t.varRec = frac.NewRecorder(), frac.NewRecorder()
	t.rec.SetSampleEvery(1)
	t.varRec.SetSampleEvery(1)
	t.rt0 = readRuntime()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, err
	}
	return t, nil
}

// phase starts accounting runtime/metrics to a phase; call the returned
// function when the phase's slice of a round ends.
func (t *tracer) phase(name string) func() {
	start := readRuntime()
	return func() {
		d := readRuntime().sub(start)
		acc := t.phaseRT[name]
		acc.gcCPU += d.gcCPU
		acc.gcCycles += d.gcCycles
		acc.allocBytes += d.allocBytes
		t.phaseRT[name] = acc
	}
}

// scoreDelta adds one offline-scoring repetition's share of rec.
func (t *tracer) scoreDelta(before, after obs.Metrics) {
	ph, term := obs.PhaseScore.String(), obs.PhaseTermScore.String()
	t.scoreCount += after.Phases[ph].Count - before.Phases[ph].Count
	t.scoreNs += after.Phases[ph].TotalNs - before.Phases[ph].TotalNs
	t.termScoreCount += after.Phases[term].Count - before.Phases[term].Count
	t.termScoreNs += after.Phases[term].TotalNs - before.Phases[term].TotalNs
}

// passMetrics reads the recorders at the end of the traced pass.
func (t *tracer) passMetrics(r *runner) {
	m := t.rec.Snapshot()
	n := float64(len(r.samples["train"]))
	train, term := m.Phases[obs.PhaseTrain.String()], m.Phases[obs.PhaseTermTrain.String()]
	r.layer["core.train.phase_s"] = float64(train.TotalNs) / 1e9 / n
	r.layer["core.train.term_mean_ms"] = float64(term.MeanNs) / 1e6
	r.layer["core.train.term_max_ms"] = float64(term.MaxNs) / 1e6
	r.layer["core.train.terms"] = float64(m.Counters[obs.CounterTermsTrained.String()]) / n
	r.layer["core.train.masked_terms"] = float64(m.Counters[obs.CounterTermsMasked.String()]) / n
	r.layer["core.train.gather_terms"] = float64(m.Counters[obs.CounterTermsGathered.String()]) / n
	r.layer["core.design_cache_mb"] = float64(m.Counters[obs.CounterDesignCacheBytes.String()]) / 1e6 / n
	var waitP50, waitP99 int64
	if m.Pool != nil {
		waitP50, waitP99 = m.Pool.QueueWait.P50Ns, m.Pool.QueueWait.P99Ns
	}
	r.layer["parallel.pool_wait_p50_ms"] = float64(waitP50) / 1e6
	r.layer["parallel.pool_wait_p99_ms"] = float64(waitP99) / 1e6
	r.layer["parallel.busy_frac"] = float64(term.TotalNs) / (float64(train.TotalNs) * float64(r.nproc))

	if t.scoreCount > 0 {
		r.layer["core.score.phase_s"] = float64(t.scoreNs) / 1e9 / float64(t.scoreCount)
	}
	if t.termScoreCount > 0 {
		r.layer["core.score.term_mean_us"] = float64(t.termScoreNs) / float64(t.termScoreCount) / 1e3
	}

	r.layer["persist.save_mb_per_s"] = float64(r.modelBytes) / 1e6 / (r.metrics["save_ms"] / 1e3)

	v := t.varRec.Snapshot()
	sweeps := float64(len(r.samples["variants"]))
	per := func(p obs.Phase) float64 { return float64(v.Phases[p.String()].TotalNs) / 1e9 / sweeps }
	r.layer["core.filter_s"] = per(obs.PhaseFilter)
	r.layer["core.project_s"] = per(obs.PhaseProject)
	r.layer["core.combine_s"] = per(obs.PhaseCombine)
}

// countingFile counts the Write or Read calls that reach a file.
type countingFile struct {
	f      *os.File
	writes int
	reads  int
}

func (c *countingFile) Write(p []byte) (int, error) { c.writes++; return c.f.Write(p) }
func (c *countingFile) Read(p []byte) (int, error)  { c.reads++; return c.f.Read(p) }

// persistCounts saves and loads the model once more through counting
// wrappers, so the number of calls each makes on the file shows exactly.
func (t *tracer) persistCounts(r *runner) error {
	path := r.modelPath + ".counted"
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := &countingFile{f: f}
	t0 := time.Now()
	err = frac.SaveModel(cw, r.model)
	save := time.Since(t0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if f, err = os.Open(path); err != nil {
		return err
	}
	defer f.Close()
	cr := &countingFile{f: f}
	t0 = time.Now()
	if _, err := frac.LoadModel(cr); err != nil {
		return err
	}
	load := time.Since(t0)
	r.layer["persist.write_calls"] = float64(cw.writes)
	r.layer["persist.read_calls"] = float64(cr.reads)
	fmt.Fprintf(t.log, "persist: counted save %.3fs (%d writes), counted load %.3fs (%d reads)\n",
		save.Seconds(), cw.writes, load.Seconds(), cr.reads)
	return nil
}

// serveMetrics times Model.ScoreRowsInto directly on the stream's own row
// batches and derives the transport share of each request class.
func (t *tracer) serveMetrics(r *runner, samples int64) {
	s := r.serving
	lat := s.fastWindows().lat
	ws := frac.NewScoreWorkspace()
	direct := map[int][]float64{}
	for _, q := range slices.Concat(s.cycles...) {
		if q.class != reqSingle && q.class != reqBulk {
			continue
		}
		rows := r.rowsMatrix(q.rows)
		out := make([]float64, len(q.rows))
		t0 := time.Now()
		err := r.model.ScoreRowsInto(rows, out, ws)
		d := time.Since(t0).Seconds()
		if !r.op(err) {
			continue
		}
		direct[q.class] = append(direct[q.class], d)
	}
	single, bulk := fastMedian(direct[reqSingle]), fastMedian(direct[reqBulk])
	r.layer["core.score_rows_into_us.single"] = single * 1e6
	r.layer["core.score_rows_into_us.bulk"] = bulk * 1e6
	r.layer["serve.transport_us.single"] = (median(lat[reqSingle]) - single) * 1e6
	r.layer["serve.transport_us.bulk"] = (median(lat[reqBulk]) - bulk) * 1e6
	r.layer["serve.explain_extra_us"] = (median(lat[reqExplain]) - median(lat[reqSingle])) * 1e6
	r.layer["serve.flushes"] = familyTotal(s.metrics.Families(), "frac_serve_flushes_total")
	r.layer["drift.samples"] = float64(samples)
	r.layer["persist.load_mb_per_s"] = float64(r.modelBytes) / 1e6 / (r.metrics["load_ms"] / 1e3)
}

// familyTotal sums every sample of one metric family.
func familyTotal(fams []obs.MetricFamily, name string) float64 {
	var t float64
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			t += s.Value
		}
	}
	return t
}

// profileBuckets maps a layer's metric name to the packages whose self
// time it sums.
var profileBuckets = []struct {
	metric   string
	packages []string
}{
	{"svm.cpu_s", []string{"frac/internal/svm"}},
	{"linalg.cpu_s", []string{"frac/internal/linalg"}},
	{"tree.cpu_s", []string{"frac/internal/tree"}},
	{"jl.cpu_s", []string{"frac/internal/jl", "frac/internal/encode"}},
	{"stats.cpu_s", []string{"frac/internal/stats"}},
	{"core.cpu_s", []string{"frac/internal/core"}},
	{"binio.cpu_s", []string{"frac/internal/binio"}},
	{"syscall.cpu_s", []string{"syscall", "internal/runtime/syscall", "internal/poll", "os"}},
	{"json.cpu_s", []string{"encoding/json"}},
	{"serve.cpu_s", []string{"frac/internal/serve"}},
	{"drift.cpu_s", []string{"frac/internal/drift"}},
}

// samplePhase is the benchmark phase a CPU sample belongs to. Serve batcher
// workers are started with their own labels, so their samples carry the
// program's frac_phase label instead of the benchmark's.
func samplePhase(s cpuSample) string {
	if p := s.labels[phaseLabel]; p != "" {
		return p
	}
	if strings.HasPrefix(s.labels["frac_phase"], "serve") {
		return "serve"
	}
	return ""
}

// finish stops the profile and emits the per-package self time of the
// benchmark's phases and the pass's runtime/metrics deltas.
func (t *tracer) finish(r *runner) error {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(t.prof.Bytes())
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	byPhase := map[string]map[string]float64{}
	for _, s := range samples {
		ph := samplePhase(s)
		if ph == "" {
			continue
		}
		if byPhase[ph] == nil {
			byPhase[ph] = map[string]float64{}
		}
		byPhase[ph][packageOf(s.leaf)] += float64(s.ns) / 1e9
	}
	for _, b := range profileBuckets {
		var total float64
		for _, pkgs := range byPhase {
			for _, p := range b.packages {
				total += pkgs[p]
			}
		}
		r.layer[b.metric] = total
	}

	d := readRuntime().sub(t.rt0)
	r.layer["runtime.gc_cpu_s"] = d.gcCPU
	r.layer["runtime.gc_cycles"] = d.gcCycles
	r.layer["runtime.alloc_mb"] = d.allocBytes / 1e6
	r.layer["runtime.gc_pause_p99_us"] = d.pauseP99 * 1e6

	fmt.Fprintf(t.log, "self CPU seconds by phase and package (top 6 per phase):\n")
	for _, ph := range []string{"setup", "train", "score", "variants", "persist", "serve"} {
		pkgs := byPhase[ph]
		names := make([]string, 0, len(pkgs))
		for p := range pkgs {
			names = append(names, p)
		}
		sort.Slice(names, func(i, j int) bool { return pkgs[names[i]] > pkgs[names[j]] })
		if len(names) > 6 {
			names = names[:6]
		}
		parts := make([]string, len(names))
		for i, p := range names {
			parts[i] = fmt.Sprintf("%s=%.2f", p, pkgs[p])
		}
		fmt.Fprintf(t.log, "  %-9s %s\n", ph, strings.Join(parts, " "))
	}
	fmt.Fprintf(t.log, "runtime/metrics deltas by phase:\n")
	for _, ph := range []string{"setup", "train", "score", "variants", "persist", "serve"} {
		d := t.phaseRT[ph]
		fmt.Fprintf(t.log, "  %-9s gc_cpu=%.3fs gc_cycles=%.0f alloc=%.1fMB\n", ph, d.gcCPU, d.gcCycles, d.allocBytes/1e6)
	}
	return nil
}

// runtimeSample is a reading of the runtime/metrics this benchmark uses.
type runtimeSample struct {
	gcCPU, gcCycles, allocBytes float64
	pauses                      *metrics.Float64Histogram
	pauseP99                    float64 // set by sub
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		gcCycles:   float64(s[1].Value.Uint64()),
		allocBytes: float64(s[2].Value.Uint64()),
		pauses:     s[3].Value.Float64Histogram(),
	}
}

// sub returns the change from an earlier sample, with the 99th percentile
// of the GC pauses in between (the upper edge of its histogram bucket).
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	d := runtimeSample{
		gcCPU:      a.gcCPU - b.gcCPU,
		gcCycles:   a.gcCycles - b.gcCycles,
		allocBytes: a.allocBytes - b.allocBytes,
	}
	if a.pauses == nil || b.pauses == nil {
		return d
	}
	counts := make([]uint64, len(a.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = a.pauses.Counts[i] - b.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			edge := a.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = a.pauses.Buckets[i]
			}
			d.pauseP99 = edge
			break
		}
	}
	return d
}

// heapAllocBytes is the cumulative bytes the process has allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fractions prints each variant's CPU time and peak analytic memory as a
// fraction of full FRaC, measured with a resource tracker the way
// internal/eval fills the paper's Tables III–V. For reference only.
func (t *tracer) fractions(ctx context.Context, r *runner) error {
	cfg := r.config(nil)
	base, err := frac.RunCtx(ctx, r.train, r.test, frac.FullTerms(r.train.NumFeatures()), cfg)
	if !r.op(err) {
		return err
	}
	fmt.Fprintf(t.log, "variant cost as a fraction of full FRaC (CPU %.2fs, peak %.2fMB):\n",
		base.Cost.CPU.Seconds(), float64(base.Cost.PeakBytes)/1e6)
	for _, v := range variants {
		tracker := resource.NewTracker()
		vcfg := r.config(nil)
		vcfg.Tracker = tracker
		_, _, err := v.run(ctx, r, vcfg, rng.New(r.seed).Stream("variant-"+v.name))
		if !r.op(err) {
			return err
		}
		c := tracker.Stop()
		tf, mf := c.Frac(base.Cost)
		fmt.Fprintf(t.log, "  %-17s time %6.2f%%  mem %6.2f%%\n", v.name, 100*tf, 100*mf)
	}
	return nil
}
