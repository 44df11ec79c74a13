package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test compares.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run passes its checks and reports exactly the metrics
// BENCHMARK.json lists, with the same units.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, ours)
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	workdir := t.TempDir()
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--smoke", "--workdir", workdir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				var got, missing []string
				for k, v := range res.Metrics {
					got = append(got, k)
					if u, ok := want[trace][k]; !ok || u != v.Unit {
						t.Errorf("metric %s (%s) is not listed in BENCHMARK.json with that unit", k, v.Unit)
					}
				}
				for k := range want[trace] {
					if _, ok := res.Metrics[k]; !ok {
						missing = append(missing, k)
					}
				}
				sort.Strings(missing)
				if len(missing) > 0 {
					t.Errorf("metrics listed in BENCHMARK.json but not reported: %v", missing)
				}
				if len(got) != len(want[trace]) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want[trace]))
				}
			})
		}
	}
}

// TestRankSumAUC pins the benchmark's own AUC on hand-checkable cases.
func TestRankSumAUC(t *testing.T) {
	labels := []bool{true, false, true, false}
	for _, c := range []struct {
		scores []float64
		want   float64
	}{
		{[]float64{4, 1, 3, 2}, 1},
		{[]float64{1, 4, 2, 3}, 0},
		{[]float64{2, 2, 2, 2}, 0.5},
		{[]float64{3, 2, 2, 2}, 0.75},
	} {
		if got := rankSumAUC(c.scores, labels); got != c.want {
			t.Errorf("rankSumAUC(%v) = %v, want %v", c.scores, got, c.want)
		}
	}
}

// TestExclusiveQuartiles matches Python's statistics.quantiles(x, n=4).
func TestExclusiveQuartiles(t *testing.T) {
	q1, q3 := exclusiveQuartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
