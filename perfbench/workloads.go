package main

import (
	"fmt"
	"sort"

	"frac"
	"frac/internal/core"
	"frac/internal/dataset"
	"frac/internal/rng"
	"frac/internal/svm"
	"frac/internal/synth"
	"frac/internal/tree"
)

// workload is one named cohort shape plus the amount of each phase a run
// does. Every count is fixed: a run never sizes its work by a clock.
type workload struct {
	name string

	// cohort generates the train (normals only) and labeled test splits;
	// tinyCohort is a much smaller cohort of the same kind, for the
	// benchmark's own smoke test.
	cohort, tinyCohort func(seed uint64) (train, test *dataset.Dataset, err error)
	// learners are the per-kind models, as internal/eval configures them
	// for this kind of data.
	learners core.Learners
	// snp marks genotype cohorts: JL keeps trees in projected space, and
	// the entropy-filter check applies.
	snp bool
	// jlDim is the projected dimension (1024 divided by the feature scale,
	// floored at 8, as internal/eval scales it).
	jlDim int
	// aucFloor is the full-FRaC AUC the planted signal must clear.
	aucFloor float64

	// rounds is how many slices every phase's repetitions are spread over
	// (see runner).
	rounds                                                 int
	setupReps, trainReps, scoreReps, variantReps, saveReps int
	// trainSplits is how many replicate splits the timed trainings rotate
	// through. Training cost follows the split: on the serve cohort one
	// split's fastest trainings took 18–26 ms depending on the seed, so
	// train_s averages over several splits of the seed.
	trainSplits int
	// warmup runs one untimed repetition of training, the variant sweep
	// and saving before the timed ones. Heavy workloads skip it: their
	// repetitions take seconds and the set-up has already warmed the heap.
	warmup bool

	// cyclesPerRound is how many request cycles (see cycleSingles) each
	// round sends; every round also sends one reload, halfway through.
	cyclesPerRound int
	// warmRequests are sent before the timed stream and not timed.
	warmRequests int
}

const (
	// filterP, ensembleMembers, diverseP and diverseEnsembleP are the
	// paper's variant settings (internal/eval defaults).
	filterP          = 0.05
	ensembleMembers  = 10
	diverseP         = 0.5
	diverseEnsembleP = 1.0 / 20
	// bulkRows is the row count of a bulk score request.
	bulkRows = 64
	// explainDepth is the attribution depth of an explain request.
	explainDepth = 8
)

// The serve stream is made of cycles, the same on every workload: each
// cycle is cycleSingles single-row score requests, cycleExplains
// single-row requests with "explain": 8, and cycleBulks 64-row requests,
// in a seeded order. The shares have two bases. Bulk requests carry two
// thirds of the scored rows (64 of 96 per cycle), so serve_rows_per_s is
// mostly batched scoring. One single-row request in four explains, as in
// the CI serve-smoke load, which spends 5 of its 20 s of single-row load
// on explain requests.
const (
	cycleSingles  = 24
	cycleExplains = 8
	cycleBulks    = 1
	// windowCycles consecutive cycles make one window, the unit the serving
	// statistics rank by speed (see serving.fastWindows).
	windowCycles = 6
)

// poolSeed fixes each workload's cohort pool: the generative structure and
// the individuals drawn from it. --seed then draws the replicate split of
// that pool, the way the paper replicates its experiments on fixed data
// sets. When --seed drew a fresh structure too, training cost followed the
// structure's conditioning: on the serve cohort the fast median of
// train_s ranged 15–21 ms over ten seeds, an interquartile range of 27%.
const poolSeed = 1

// expressionCohort splits a compendium expression profile's pool (at a
// feature scale) 2/3 of normals to train, the rest plus all anomalies to
// test, as internal/eval does, with the split drawn from the seed.
func expressionCohort(profile string, scale int) func(seed uint64) (*dataset.Dataset, *dataset.Dataset, error) {
	return func(seed uint64) (*dataset.Dataset, *dataset.Dataset, error) {
		p, err := synth.ProfileByName(profile)
		if err != nil {
			return nil, nil, err
		}
		pool, err := p.Generate(scale, poolSeed)
		if err != nil {
			return nil, nil, err
		}
		reps, err := frac.MakeReplicates(pool, 1, 2.0/3, rng.New(seed).Stream("splits-"+p.Name))
		if err != nil {
			return nil, nil, err
		}
		return reps[0].Train, reps[0].Test, nil
	}
}

// snpCohort draws the schizophrenia construction (two populations, drifted
// LD blocks) at a given site count with spare normals, and the seed picks
// the profile's 270 training normals and 10 held-out normals from them;
// every anomaly is tested. At the paper's drift fraction a few hundred
// sites make 15 LD blocks of which one drifts, and full-FRaC AUC ranged
// 0.58–0.87 over ten generator seeds. Drifting a fifth of the blocks and
// flipping the LD phase of a fifth of the other sites plants a signal that
// is detectable at this size: AUC 0.77–0.99 over the same seeds.
func snpCohort(features int) func(seed uint64) (*dataset.Dataset, *dataset.Dataset, error) {
	const spareTrain, spareTest = 30, 30
	return func(seed uint64) (*dataset.Dataset, *dataset.Dataset, error) {
		p, err := synth.ProfileByName("schizophrenia")
		if err != nil {
			return nil, nil, err
		}
		params, err := p.SNPParamsFor(features)
		if err != nil {
			return nil, nil, err
		}
		params.DriftFrac, params.BackgroundFlipFrac = 0.2, 0.2
		params.Normal += spareTrain + spareTest
		train, test, err := synth.GenerateConfoundedSNP(p.Name, params, p.TestNormals+spareTest,
			rng.New(poolSeed).Stream("profile-"+p.Name))
		if err != nil {
			return nil, nil, err
		}
		src := rng.New(seed).Stream("splits-" + p.Name)
		trainRows := sortedSample(src, train.NumSamples(), train.NumSamples()-spareTrain)
		testRows := sortedSample(src, p.TestNormals+spareTest, p.TestNormals)
		for i := p.TestNormals + spareTest; i < test.NumSamples(); i++ {
			testRows = append(testRows, i) // the anomalies follow the normals
		}
		return train.SelectSamples(trainRows), test.SelectSamples(testRows), nil
	}
}

// splitSeed is the cohort seed of a run's k-th training split. Split 0 is
// the run's own split: the one set-up writes and reads, and whose model is
// scored, saved and served.
func splitSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return rng.New(seed).StreamAt("train-split", uint64(k)).Uint64()
}

// sortedSample draws k of n indices and returns them in ascending order.
func sortedSample(src *rng.Source, n, k int) []int {
	idx := src.SampleK(n, k)
	sort.Ints(idx)
	return idx
}

// jlDimFor scales the paper's 1024 projected dimensions like internal/eval.
func jlDimFor(scale int) int {
	d := 1024 / scale
	if d < 8 {
		d = 8
	}
	return d
}

// exprLearners are the paper-table learners: linear SVR with C = 0.01 on
// standardized features, trees for categorical targets.
func exprLearners() core.Learners {
	return core.MixedLearners(svm.SVRParams{C: 0.01}, tree.Params{})
}

var workloads = []workload{
	{
		name: "snp",
		// Tree terms only: tree induction and integer-row serving, no SVR.
		// 300 sites, 270 train normals, 10 held-out normals + 54 anomalies.
		cohort:     snpCohort(300),
		tinyCohort: snpCohort(60),
		learners:   core.TreeLearners(tree.Params{}),
		snp:        true,
		jlDim:      jlDimFor(171763 / 300),
		aucFloor:   0.65,

		rounds:    12,
		setupReps: 36, trainReps: 3, scoreReps: 72, variantReps: 2, saveReps: 6,
		trainSplits:    1,
		cyclesPerRound: 42,
		warmRequests:   100,
	},
	{
		name: "serve",
		// Narrow, under a long request stream: JSON, the batcher, drift
		// recording and explanation dominate.
		// hematopoiesis at scale 204: 65 genes, 64 train normals, 124 test
		// rows. The fracserve smoke model's breast.basal profile has the
		// same width but only 38 test rows; its AUC ranged 0.65–0.90 over
		// ten generator seeds, against 0.82–0.92 here.
		cohort:     expressionCohort("hematopoiesis", 204),
		tinyCohort: expressionCohort("hematopoiesis", 512),
		learners:   exprLearners(),
		jlDim:      jlDimFor(204),
		aucFloor:   0.65,

		rounds:    24,
		setupReps: 48, trainReps: 240, scoreReps: 240, variantReps: 48, saveReps: 48,
		trainSplits:    10,
		cyclesPerRound: 84,
		warmRequests:   500, warmup: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with every repetition and request count multiplied by
// f (at least 1 each, at least 3 for medians of timed repetitions, at
// least one training per split). The counts stay a pure function of the
// flags.
func (w workload) scaled(f float64) workload {
	n := func(v, min int) int {
		s := int(float64(v)*f + 0.5)
		if s < min {
			s = min
		}
		return s
	}
	w.setupReps = n(w.setupReps, 3)
	w.trainReps = n(w.trainReps, w.trainSplits)
	w.scoreReps = n(w.scoreReps, 3)
	w.variantReps = n(w.variantReps, 1)
	w.saveReps = n(w.saveReps, 1)
	w.cyclesPerRound = n(w.cyclesPerRound, 1)
	w.warmRequests = n(w.warmRequests, 1)
	return w
}

// tiny swaps in the small cohort; with --seconds 1 the counts shrink too.
func (w workload) tiny() workload {
	w.cohort = w.tinyCohort
	return w
}
