package main

import (
	"fmt"
	"math"
	"sort"

	"frac/internal/dataset"
	"frac/internal/linalg"
)

// The output checks below are computed apart from the program: from the
// generator's labels and from properties the method must have. None of them
// compares against a stored copy of an earlier run's output.

// rankSumAUC is the Mann–Whitney statistic over every anomaly/control pair:
// a pair counts 1 when the anomaly scores higher, 1/2 on a tie.
func rankSumAUC(scores []float64, anomalous []bool) float64 {
	var wins float64
	var nA, nC int
	for i, a := range anomalous {
		if !a {
			nC++
			continue
		}
		nA++
		for j, c := range anomalous {
			if c {
				continue
			}
			switch {
			case scores[i] > scores[j]:
				wins++
			case scores[i] == scores[j]:
				wins += 0.5
			}
		}
	}
	return wins / float64(nA*nC)
}

// aucAgrees reports whether the program's AUC equals the rank-sum AUC up
// to the rounding of two different summation orders.
func aucAgrees(program, own float64) bool {
	return math.Abs(program-own) <= 1e-12
}

// firstDiff returns the first index where a and b differ bit for bit, or -1
// when they are identical (NaN payloads included).
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameDataset reports how a read-back data set differs from the generated
// one, or "" when schema, cells and labels are identical.
func sameDataset(got, want *dataset.Dataset) string {
	if len(got.Schema) != len(want.Schema) {
		return fmt.Sprintf("%d features, want %d", len(got.Schema), len(want.Schema))
	}
	for j := range got.Schema {
		if got.Schema[j].Kind != want.Schema[j].Kind || got.Schema[j].Arity != want.Schema[j].Arity {
			return fmt.Sprintf("feature %d kind/arity differs", j)
		}
	}
	if got.NumSamples() != want.NumSamples() {
		return fmt.Sprintf("%d samples, want %d", got.NumSamples(), want.NumSamples())
	}
	if i := firstDiff(got.X.Data, want.X.Data); i >= 0 {
		return fmt.Sprintf("cell %d differs", i)
	}
	if len(got.Anomalous) != len(want.Anomalous) {
		return "labels differ in length"
	}
	for i := range got.Anomalous {
		if got.Anomalous[i] != want.Anomalous[i] {
			return fmt.Sprintf("label %d differs", i)
		}
	}
	return ""
}

// termSumsMatch checks that each sample's per-term contributions, summed in
// ascending term order, give its total exactly.
func termSumsMatch(perTerm *linalg.Matrix, totals []float64) int {
	for s := range totals {
		var t float64
		for ti := 0; ti < perTerm.Rows; ti++ {
			t += perTerm.At(ti, s)
		}
		if math.Float64bits(t) != math.Float64bits(totals[s]) {
			return s
		}
	}
	return -1
}

// attribution is one expected explanation entry.
type attribution struct {
	orig         int
	contribution float64
}

// topContributions returns the k features with the largest signed
// contribution to test sample s (feature index ascending on ties), from the
// offline per-term matrix of a full-wiring model (term i predicts feature
// i, so a feature's sum is its one term).
func topContributions(perTerm *linalg.Matrix, s, k int) []attribution {
	all := make([]attribution, perTerm.Rows)
	for ti := range all {
		all[ti] = attribution{orig: ti, contribution: perTerm.At(ti, s)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].contribution != all[j].contribution {
			return all[i].contribution > all[j].contribution
		}
		return all[i].orig < all[j].orig
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// genotypeEntropy is the plug-in entropy (nats) of one categorical
// column's observed values.
func genotypeEntropy(d *dataset.Dataset, j int) float64 {
	counts := map[float64]int{}
	n := 0
	for i := 0; i < d.NumSamples(); i++ {
		v := d.X.At(i, j)
		if dataset.IsMissing(v) {
			continue
		}
		counts[v]++
		n++
	}
	var h float64
	for _, c := range counts {
		p := float64(c) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// checkEntropyFilter verifies that kept holds the keep-count features of
// highest plug-in entropy on train. Features whose entropy ties the
// cut-off (within rounding) may fall on either side.
func checkEntropyFilter(train *dataset.Dataset, kept []int, p float64) string {
	f := train.NumFeatures()
	k := int(math.Round(p * float64(f)))
	if k < 1 {
		k = 1
	}
	if len(kept) != k {
		return fmt.Sprintf("entropy filter kept %d features, want %d", len(kept), k)
	}
	h := make([]float64, f)
	for j := range h {
		h[j] = genotypeEntropy(train, j)
	}
	sorted := append([]float64(nil), h...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	cut := sorted[k-1]
	const tie = 1e-9
	in := make(map[int]bool, len(kept))
	for _, j := range kept {
		if j < 0 || j >= f || in[j] {
			return fmt.Sprintf("entropy filter kept invalid or repeated feature %d", j)
		}
		in[j] = true
		if h[j] < cut-tie {
			return fmt.Sprintf("entropy filter kept feature %d (H=%.6f) below the cut-off %.6f", j, h[j], cut)
		}
	}
	for j := 0; j < f; j++ {
		if !in[j] && h[j] > cut+tie {
			return fmt.Sprintf("entropy filter dropped feature %d (H=%.6f) above the cut-off %.6f", j, h[j], cut)
		}
	}
	return ""
}
