package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"frac"
	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/rng"
)

// phaseLabel is the pprof label key the benchmark sets around each phase,
// so a CPU profile can be split by phase.
const phaseLabel = "perfbench_phase"

// runner drives one pass of a workload through the full user path and
// collects its timings, operation counts and check results.
//
// A pass is a number of rounds. Each round runs its share of every phase's
// repetitions — set-up, training, offline scoring, the variant sweep,
// saving, and a slice of the serve stream — so that the samples of every
// timed quantity spread over the whole run instead of one short window. On
// a shared host the speed of the machine drifts over seconds; a phase timed
// in one burst would report whichever state the host was in then.
type runner struct {
	w     workload
	seed  uint64
	dir   string // scratch directory for the TSVs and the model file
	nproc int
	tr    *tracer // nil on untraced passes
	log   io.Writer

	attempted int
	opErrors  []string // operations that returned an error
	problems  []string // failed output checks

	// samples holds each timed quantity's repetitions, in seconds.
	samples map[string][]float64
	// metrics holds end-to-end values; layer holds per-layer values
	// (filled on traced passes only).
	metrics map[string]float64
	layer   map[string]float64

	// State handed from phase to phase.
	train, test *dataset.Dataset
	labels      []bool // the generator's test labels
	terms       []frac.Term
	model       *frac.Model          // the first training's model: scored, saved and served
	offline     []float64            // offline test totals of model
	perTerm     *core.ScoreSet       // offline per-term test scores of model
	variantOut  map[string][]float64 // each variant's scores from its first sweep
	splits      []*trainSplit        // the training splits, split 0 first
	modelPath   string
	modelBytes  int64

	serving *serving // the mounted model and its stream
}

func newRunner(w workload, seed uint64, dir string, tr *tracer, log io.Writer) *runner {
	return &runner{
		w: w, seed: seed, dir: dir, nproc: runtime.NumCPU(), tr: tr, log: log,
		samples:    map[string][]float64{},
		metrics:    map[string]float64{},
		layer:      map[string]float64{},
		variantOut: map[string][]float64{},
	}
}

// op counts one attempted operation and whether it failed. It returns true
// when the operation succeeded.
func (r *runner) op(err error) bool {
	r.attempted++
	if err != nil {
		r.opErrors = append(r.opErrors, err.Error())
		return false
	}
	return true
}

// check records a failed output check.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// logf writes a diagnostic line to standard error.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: %s: "+format+"\n", append([]any{r.w.name}, args...)...)
}

// sample records one repetition of a timed quantity.
func (r *runner) sample(name string, seconds float64) {
	r.samples[name] = append(r.samples[name], seconds)
}

// share is round i's part of n repetitions, spread evenly over the rounds:
// ceil((i+1)·n/R) − ceil(i·n/R). The first round always gets at least one
// when n ≥ 1, which later phases rely on.
func (r *runner) share(n, i int) int {
	R := r.w.rounds
	ceil := func(a int) int { return (a + R - 1) / R }
	return ceil((i+1)*n) - ceil(i*n)
}

// warm is the number of untimed repetitions before a phase's first timed
// one in this round: one in the first round of a light workload.
func (r *runner) warm(round int) int {
	if r.w.warmup && round == 0 {
		return 1
	}
	return 0
}

// run executes every round and then derives the metrics. An error means
// the pass could not go on (a phase's input is missing); failed checks are
// in r.problems.
func (r *runner) run(ctx context.Context) error {
	defer r.closeServing()
	for i := 0; i < r.w.rounds; i++ {
		for _, p := range []struct {
			name string
			fn   func(ctx context.Context, round int) error
		}{
			{"setup", r.setupRound},
			{"train", r.trainRound},
			{"score", r.scoreRound},
			{"variants", r.variantsRound},
			{"persist", r.persistRound},
			{"serve", r.serveRound},
		} {
			var err error
			pprof.Do(ctx, pprof.Labels(phaseLabel, p.name), func(ctx context.Context) {
				if r.tr != nil {
					defer r.tr.phase(p.name)()
				}
				err = p.fn(ctx, i)
			})
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
	}
	r.finish()
	return nil
}

// config is the training configuration every phase uses: the workload's
// learners, one worker per CPU, a shared compute pool, and the recorder
// (nil when untraced).
func (r *runner) config(rec *obs.Recorder) frac.Config {
	limit := frac.NewLimit(r.nproc)
	if rec != nil {
		limit.Instrument(rec)
	}
	return frac.Config{
		Learners: r.w.learners,
		Workers:  r.nproc,
		Seed:     r.seed ^ 0xfeed,
		Limit:    limit,
		Obs:      rec,
	}
}

// setupRound generates the cohort, writes the train and test TSVs and
// reads them back. The first read-back is what every later phase uses.
func (r *runner) setupRound(ctx context.Context, round int) error {
	trainPath := filepath.Join(r.dir, "train.tsv")
	testPath := filepath.Join(r.dir, "test.tsv")
	for k := 0; k < r.share(r.w.setupReps, round); k++ {
		runtime.GC()
		t0 := time.Now()
		tr, te, err := r.w.cohort(r.seed)
		if !r.op(err) {
			return err
		}
		t1 := time.Now()
		err = frac.WriteDatasetFile(trainPath, tr)
		if err == nil {
			err = frac.WriteDatasetFile(testPath, te)
		}
		if !r.op(err) {
			return err
		}
		t2 := time.Now()
		rtr, err := frac.ReadDatasetFile(trainPath)
		var rte *dataset.Dataset
		if err == nil {
			rte, err = frac.ReadDatasetFile(testPath)
		}
		if !r.op(err) {
			return err
		}
		t3 := time.Now()
		r.sample("synth", t1.Sub(t0).Seconds())
		r.sample("write", t2.Sub(t1).Seconds())
		r.sample("read", t3.Sub(t2).Seconds())
		r.sample("setup", t3.Sub(t0).Seconds())
		msg := sameDataset(rtr, tr) + sameDataset(rte, te)
		r.check(msg == "", "TSV round trip: %s", msg)
		if r.train == nil {
			r.train, r.test, r.labels = rtr, rte, te.Anomalous
		}
	}
	if r.train == nil {
		return fmt.Errorf("no set-up in the first round")
	}
	if r.terms == nil {
		normals, anomalies := 0, 0
		for _, a := range r.labels {
			if a {
				anomalies++
			} else {
				normals++
			}
		}
		if normals == 0 || anomalies == 0 {
			return fmt.Errorf("test split has %d normals and %d anomalies", normals, anomalies)
		}
		r.terms = frac.FullTerms(r.train.NumFeatures())
	}
	return nil
}

// trainSplit is one replicate split the timed trainings rotate through,
// with its trainings' times and the test scores every training of it must
// give.
type trainSplit struct {
	train, test *dataset.Dataset
	scores      []float64
	wall, cpu   []float64 // seconds per training
}

// trainSplit returns the k-th training split, generating it on first use.
// Split 0 is the one set-up read back.
func (r *runner) trainSplit(k int) (*trainSplit, error) {
	for len(r.splits) <= k {
		sp := &trainSplit{train: r.train, test: r.test}
		if i := len(r.splits); i > 0 {
			var err error
			sp.train, sp.test, err = r.w.cohort(splitSeed(r.seed, i))
			if !r.op(err) {
				return nil, err
			}
		}
		r.splits = append(r.splits, sp)
	}
	return r.splits[k], nil
}

// trainRound trains full FRaC its share of trainReps times, rotating
// through the training splits, and checks that every training of a split
// scores its test set bit-identically. The first model of split 0 gets the
// drift reference embedded, as frac -save-model does, and is the one
// scored, saved and served.
func (r *runner) trainRound(ctx context.Context, round int) error {
	for k := 0; k < r.warm(round); k++ {
		if _, err := frac.TrainCtx(ctx, r.train, r.terms, r.config(nil)); !r.op(err) {
			return err
		}
	}
	cfg := r.config(nil)
	if r.tr != nil {
		cfg = r.config(r.tr.rec)
	}
	for k := 0; k < r.share(r.w.trainReps, round); k++ {
		n := len(r.samples["train"])
		sp, err := r.trainSplit(n % r.w.trainSplits)
		if err != nil {
			return err
		}
		runtime.GC()
		c0 := cpuTime()
		t0 := time.Now()
		m, err := frac.TrainCtx(ctx, sp.train, r.terms, cfg)
		wall := time.Since(t0).Seconds()
		cpu := (cpuTime() - c0).Seconds()
		if !r.op(err) {
			return err
		}
		r.sample("train", wall)
		r.sample("train_cpu", cpu)
		sp.wall = append(sp.wall, wall)
		sp.cpu = append(sp.cpu, cpu)
		ss, err := m.ScoreDatasetCtx(ctx, sp.test)
		if !r.op(err) {
			return err
		}
		switch {
		case sp.scores == nil:
			sp.scores = ss.Totals()
		case firstDiff(ss.Totals(), sp.scores) >= 0:
			r.check(false, "training %d scores sample %d differently from the first of its split", n, firstDiff(ss.Totals(), sp.scores))
		}
		if r.model == nil {
			r.model, r.offline, r.perTerm = m, ss.Totals(), ss
			r.checkOffline()
			if err := r.model.CaptureDriftReference(ctx, r.train); !r.op(err) {
				return err
			}
		}
	}
	if r.model == nil {
		return fmt.Errorf("no training in the first round")
	}
	return nil
}

// splitMean is the mean, over the training splits, of the fast median of
// one per-split series.
func (r *runner) splitMean(series func(*trainSplit) []float64) float64 {
	var sum float64
	for _, sp := range r.splits {
		sum += fastMedian(series(sp))
	}
	return sum / float64(len(r.splits))
}

// scoreRound scores the test split offline its share of scoreReps times,
// after one untimed pass in the first round, and checks that every pass
// gives the scores of the first.
func (r *runner) scoreRound(ctx context.Context, round int) error {
	if round == 0 {
		ss, err := r.model.ScoreDatasetCtx(ctx, r.test)
		if !r.op(err) {
			return err
		}
		if i := firstDiff(ss.Totals(), r.offline); i >= 0 {
			r.check(false, "offline scoring differs at sample %d", i)
		}
	}
	for k := 0; k < r.share(r.w.scoreReps, round); k++ {
		runtime.GC()
		var before obs.Metrics
		if r.tr != nil {
			before = r.tr.rec.Snapshot()
		}
		t0 := time.Now()
		ss, err := r.model.ScoreDatasetCtx(ctx, r.test)
		d := time.Since(t0)
		if !r.op(err) {
			return err
		}
		if r.tr != nil {
			r.tr.scoreDelta(before, r.tr.rec.Snapshot())
		}
		r.sample("score", d.Seconds())
		if i := firstDiff(ss.Totals(), r.offline); i >= 0 {
			r.check(false, "offline scoring repetition differs at sample %d", i)
		}
	}
	return nil
}

// checkOffline checks the first offline scores: per-term sums, finiteness,
// and the AUC against the generator's labels.
func (r *runner) checkOffline() {
	i := termSumsMatch(r.perTerm.PerTerm, r.offline)
	r.check(i < 0, "per-term contributions of sample %d do not sum to its total", i)
	r.check(core.SanityCheckScores(r.offline) == nil, "offline scores: %v", core.SanityCheckScores(r.offline))
	auc := frac.AUC(r.offline, r.labels)
	own := rankSumAUC(r.offline, r.labels)
	r.check(aucAgrees(auc, own), "full-FRaC AUC %v differs from the rank-sum AUC %v", auc, own)
	r.check(own >= r.w.aucFloor, "full-FRaC AUC %.4f is below the floor %.2f", own, r.w.aucFloor)
	r.metrics["auc_full"] = own
}

// variant is one configuration of the paper's sweep.
type variant struct {
	name string // metric stem: variants.<name>_s and variants.<name>_auc
	run  func(ctx context.Context, r *runner, cfg frac.Config, src *rng.Source) (scores []float64, kept []int, err error)
}

// variants are the paper's sweep with internal/eval's settings.
var variants = []variant{
	{"entropy_filter", func(ctx context.Context, r *runner, cfg frac.Config, src *rng.Source) ([]float64, []int, error) {
		res, kept, err := frac.RunFullFilteredCtx(ctx, r.train, r.test, frac.EntropyFilter, filterP, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res.Scores, kept, nil
	}},
	{"random_ensemble", func(ctx context.Context, r *runner, cfg frac.Config, src *rng.Source) ([]float64, []int, error) {
		s, err := frac.RunFilterEnsembleCtx(ctx, r.train, r.test, frac.RandomFilter, filterP,
			frac.EnsembleSpec{Members: ensembleMembers}, src, cfg)
		return s, nil, err
	}},
	{"diverse", func(ctx context.Context, r *runner, cfg frac.Config, src *rng.Source) ([]float64, []int, error) {
		res, err := frac.RunDiverseCtx(ctx, r.train, r.test, diverseP, 1, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res.Scores, nil, nil
	}},
	{"diverse_ensemble", func(ctx context.Context, r *runner, cfg frac.Config, src *rng.Source) ([]float64, []int, error) {
		s, err := frac.RunDiverseEnsembleCtx(ctx, r.train, r.test, diverseEnsembleP,
			frac.EnsembleSpec{Members: ensembleMembers}, src, cfg)
		return s, nil, err
	}},
	{"jl", func(ctx context.Context, r *runner, cfg frac.Config, src *rng.Source) ([]float64, []int, error) {
		spec := frac.JLSpec{Dim: r.w.jlDim}
		if r.w.snp {
			spec.Learners = cfg.Learners // trees in projected space
		}
		res, err := frac.RunJLCtx(ctx, r.train, r.test, spec, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		return res.Scores, nil, nil
	}},
}

// variantsRound runs its share of variantReps sweeps (after one untimed
// warm-up on light workloads) and checks that every sweep gives the same
// scores.
func (r *runner) variantsRound(ctx context.Context, round int) error {
	warm := r.warm(round)
	for k := 0; k < warm+r.share(r.w.variantReps, round); k++ {
		timed := k >= warm
		cfg := r.config(nil)
		if timed && r.tr != nil {
			cfg = r.config(r.tr.varRec)
		}
		runtime.GC()
		st0 := time.Now()
		for _, v := range variants {
			src := rng.New(r.seed).Stream("variant-" + v.name)
			c0, t0 := cpuTime(), time.Now()
			s, kept, err := v.run(ctx, r, cfg, src)
			d, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
			if !r.op(err) {
				return err
			}
			if prev, ok := r.variantOut[v.name]; !ok {
				r.variantOut[v.name] = s
				if v.name == "entropy_filter" && r.w.snp {
					msg := checkEntropyFilter(r.train, kept, filterP)
					r.check(msg == "", "%s", msg)
				}
			} else if i := firstDiff(s, prev); i >= 0 {
				r.check(false, "variant %s differs between sweeps at sample %d", v.name, i)
			}
			if timed {
				r.sample("variants."+v.name, d)
				r.sample("variants_cpu."+v.name, cpu)
			}
		}
		if timed {
			r.sample("variants", time.Since(st0).Seconds())
		}
	}
	return nil
}

// persistRound saves the model into a file its share of saveReps times;
// the first round always leaves a saved file for serving to mount. The
// saved file is what the serve phase loads, so every served score also
// checks that the model survives the round trip bit for bit.
func (r *runner) persistRound(ctx context.Context, round int) error {
	n := r.share(r.w.saveReps, round)
	warm := r.warm(round)
	if r.modelPath == "" {
		r.modelPath = filepath.Join(r.dir, "model.frac")
		if n == 0 {
			warm = 1
		}
	}
	for k := 0; k < warm+n; k++ {
		runtime.GC()
		d, err := r.saveOnce()
		if !r.op(err) {
			return err
		}
		if k >= warm {
			r.sample("save", d.Seconds())
		}
	}
	if r.modelBytes == 0 {
		fi, err := os.Stat(r.modelPath)
		if !r.op(err) {
			return err
		}
		r.modelBytes = fi.Size()
		if r.tr != nil {
			if err := r.tr.persistCounts(r); !r.op(err) {
				return err
			}
		}
	}
	return nil
}

// saveOnce writes the model into a fresh *os.File, as frac -save-model
// does, and returns the time SaveModel took.
func (r *runner) saveOnce() (time.Duration, error) {
	f, err := os.Create(r.modelPath)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = frac.SaveModel(f, r.model)
	d := time.Since(t0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return d, err
}

// finish checks what spans the whole pass and derives the metrics from the
// collected samples.
func (r *runner) finish() {
	// The sweep's times are sums of each variant's fast median: a sweep is
	// seconds long on snp, and the host's speed changes within it, so two
	// whole sweeps of one run differed by up to 55%.
	var aucSum, sweep, sweepCPU float64
	for _, v := range variants {
		s := r.variantOut[v.name]
		r.check(core.SanityCheckScores(s) == nil, "variant %s: %v", v.name, core.SanityCheckScores(s))
		own := rankSumAUC(s, r.labels)
		r.check(aucAgrees(frac.AUC(s, r.labels), own), "variant %s AUC %v differs from the rank-sum AUC %v",
			v.name, frac.AUC(s, r.labels), own)
		aucSum += own
		r.layer["variants."+v.name+"_auc"] = own
		r.layer["variants."+v.name+"_s"] = fastMedian(r.samples["variants."+v.name])
		sweep += r.layer["variants."+v.name+"_s"]
		sweepCPU += fastMedian(r.samples["variants_cpu."+v.name])
	}
	r.serveFinish()

	m := r.metrics
	m["setup_s"] = fastMedian(r.samples["setup"])
	m["train_s"] = r.splitMean(func(sp *trainSplit) []float64 { return sp.wall })
	m["train_cpu_s"] = r.splitMean(func(sp *trainSplit) []float64 { return sp.cpu })
	m["score_rows_per_s"] = float64(r.test.NumSamples()) / fastMedian(r.samples["score"])
	m["variants_s"] = sweep
	m["variants_cpu_s"] = sweepCPU
	m["auc_variants"] = aucSum / float64(len(variants))
	m["model_mb"] = float64(r.modelBytes) / 1e6
	m["save_ms"] = fastMedian(r.samples["save"]) * 1e3
	m["peak_rss_mb"] = float64(peakRSSBytes()) / 1e6
	r.layer["synth.generate_s"] = fastMedian(r.samples["synth"])
	r.layer["dataset.write_s"] = fastMedian(r.samples["write"])
	r.layer["dataset.read_s"] = fastMedian(r.samples["read"])
	r.logf("train %s variants %s save %s", fmtSeconds(r.samples["train"]),
		fmtSeconds(r.samples["variants"]), fmtSeconds(r.samples["save"]))
	if r.tr != nil {
		r.tr.passMetrics(r)
	}
}

// fmtSeconds formats repetition times for diagnostics.
func fmtSeconds(xs []float64) string {
	if len(xs) > 30 {
		return fmt.Sprintf("[%d reps, median %.4f]", len(xs), median(xs))
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
