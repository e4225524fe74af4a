package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"jrpm/internal/progen"
)

// inputBytes serializes every input a run with seed would use: the Table 3
// orders, the progen sources, and the fleet-mix spec sequence.
func inputBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	for pass := 0; pass < 3; pass++ {
		for _, w := range table3Order(seed, pass) {
			fmt.Fprintln(&b, w.Name)
		}
	}
	for i := 0; i < 20; i++ {
		src, err := progen.Asm(progen.Generate(progenSeed(seed, streamProgen, i), progen.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(src)
	}
	cfg := &config{seed: seed}
	for i := 0; i < 200; i++ {
		j, err := fleetInput(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s %t %v\n%s\n", j.pick.Kind, j.spec.Workload, j.spec.Diagnose, j.oracle, j.spec.Source)
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := inputBytes(t, 7), inputBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("two input sets drawn from seed 7 differ")
	}
	if bytes.Equal(a, inputBytes(t, 8)) {
		t.Fatal("seeds 7 and 8 drew identical inputs")
	}
}

func TestProgenSeedsNeverRepeat(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		s := progenSeed(3, streamProgen, i)
		if seen[s] {
			t.Fatalf("program %d repeats seed %d", i, s)
		}
		seen[s] = true
	}
}

func TestFleetMixShares(t *testing.T) {
	const n = 20000
	count := map[fleetKind]int{}
	for i := 0; i < n; i++ {
		count[fleetPickAt(5, i).Kind]++
	}
	for k, want := range map[fleetKind]float64{
		kindPopular:  popularShare,
		kindDiagnose: diagnoseShare,
		kindFresh:    1 - popularShare - diagnoseShare,
	} {
		if got := float64(count[k]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.3f, want %.3f", k, got, want)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 90, 900},
		{100, 90, 90},
		{99, 50, 50},
		{20, 50, 10},
		{19, 100, 19},
	} {
		pct, v, n := tail(seq(tc.n))
		if pct != tc.pct || v != tc.want || n != tc.n {
			t.Errorf("tail of 1..%d = p%v %v (n=%d), want p%v %v", tc.n, pct, v, n, tc.pct, tc.want)
		}
		if pct < 100 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("tail of 1..%d leaves %d samples beyond it, want at least 10", tc.n, beyond)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Job: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Job: 1, ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", Job: 1, ID: 2, Parent: 0, Start: 20, End: 50},
		{Name: "c", Job: 1, ID: 3, Parent: 1, Start: 12, End: 15},
	}
	self := selfTimes(spans)[1]
	want := map[string]int64{"job": 60, "a": 17, "b": 30, "c": 3}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	if got := overlap(spans[1:3]); got != 10 {
		t.Errorf("overlap of a and b = %d, want 10", got)
	}
}

// smoke runs one workload in smoke mode and returns its report.
func smoke(t *testing.T, out, workload string, trace bool) (report, *outcome) {
	t.Helper()
	cfg := &config{workload: workload, seed: 11, seconds: 0.5, trace: trace, smoke: true,
		setups: 1, root: "..", out: out}
	o, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := finish(cfg, o)
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d: %v",
			workload, trace, rep.Correct, rep.Attempted, rep.Failed, o.errs)
	}
	return rep, o
}

func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadNames {
		rep, _ := smoke(t, out, w, false)
		for _, d := range endToEnd {
			if v := rep.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w, d.name, v)
			}
		}

		rep, o := smoke(t, out, w, true)
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: traced run printed %d metrics, want %d", w, len(rep.Metrics), len(perLayer))
		}
		if w == "fleet-mix" {
			continue
		}
		// The layer self times plus core.overhead_ms add up to the traced
		// job time.
		sum := rep.Metrics["core.overhead_ms"].Value
		for _, metric := range stageMetric {
			sum += rep.Metrics[metric].Value
		}
		if job := rep.Metrics["bench.traced_job_ms"].Value; math.Abs(sum-job) > 1e-9*job {
			t.Errorf("%s: layer self times and overhead sum to %v ms, traced job takes %v ms", w, sum, job)
		}
		if missing := o.detail["not_exercised"].([]string); len(missing) == 0 {
			t.Errorf("%s: expected the fleet layers to be reported as not exercised", w)
		}

		// A second run with the same seed compares its exact metrics with
		// the first one's and fails on any drift.
		smoke(t, out, w, true)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, want %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s], want %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
