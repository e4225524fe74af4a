package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"jrpm/internal/tls"
)

// goldenPath is the difftest suite's pinned Table 3 results, relative to the
// repository root. The benchmark only reads it.
const goldenPath = "internal/difftest/testdata/golden_cycles.json"

// goldenRow mirrors one row of the golden file.
type goldenRow struct {
	Seq, Profile, TLS              int64
	Commits, Violations, Overflows int64
	Stats                          tls.StateStats
}

func goldenOf(r simRow) goldenRow {
	return goldenRow{
		Seq: r.Seq.Cycles, Profile: r.Profile.Cycles, TLS: r.TLS.Cycles,
		Commits: r.TLS.Commits, Violations: r.TLS.Violations, Overflows: r.TLS.Overflows,
		Stats: r.TLS.Stats,
	}
}

func loadGolden(root string) (map[string]goldenRow, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	rows := map[string]goldenRow{}
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return rows, nil
}

// checkGolden compares a Table 3 result with its golden row.
func checkGolden(golden map[string]goldenRow, name string, r simRow) error {
	want, ok := golden[name]
	if !ok {
		return fmt.Errorf("%s: no golden row", name)
	}
	if got := goldenOf(r); got != want {
		return fmt.Errorf("%s: simulated row %+v differs from golden %+v", name, got, want)
	}
	if !r.OutputsMatch {
		return fmt.Errorf("%s: speculative output differs from sequential", name)
	}
	return nil
}

// checkOracle compares a progen result with the AST interpreter's output.
// Every phase that ran must print what the interpreter prints, with one
// exception: a speculative run whose output differs from the sequential
// run's, when the pipeline reports that itself (OutputsMatch false), is a
// detected divergence. The service answers one by degrading to the
// sequential result; checkOracle reports it as diverged rather than failed.
// A result degraded below the TLS rung has no speculative phase (0 cycles).
func checkOracle(name string, want []int64, r simRow) (diverged bool, err error) {
	d := digest(want)
	if r.Seq.Output != d {
		return false, fmt.Errorf("%s: sequential output differs from the AST interpreter", name)
	}
	if r.Profile.Cycles > 0 && r.Profile.Output != d {
		return false, fmt.Errorf("%s: profiled output differs from the AST interpreter", name)
	}
	if r.TLS.Cycles > 0 && r.TLS.Output != d {
		if r.OutputsMatch {
			return false, fmt.Errorf("%s: speculative output differs from the AST interpreter unreported", name)
		}
		return true, nil
	}
	return false, nil
}

// simAgg sums the simulated outcome of a fixed reference set of jobs. Every
// figure it yields is a function of the inputs alone, so two runs with one
// seed must agree bit for bit.
type simAgg struct {
	speedups, paperErrs            []float64
	commits, violations, overflows int64
	runUsed, runViolated           int64
	l1h, l1m, l2h, l2m             int64
	promotions, demotions          int64
	loops, selected, diverged      int64
	replayed                       bool // loops was counted
}

// add folds one job's row in. paper is the Figure 8 speedup of the
// workload, or 0 when the program has none; loops is cfg's loop count, or
// -1 when the job was not replayed; diverged is checkOracle's verdict.
func (a *simAgg) add(r simRow, paper float64, loops int, diverged bool) {
	if diverged {
		a.diverged++
	}
	sp := float64(r.Seq.Cycles) / float64(r.TLS.Cycles)
	a.speedups = append(a.speedups, sp)
	if paper > 0 {
		a.paperErrs = append(a.paperErrs, 100*math.Abs(sp-paper)/paper)
	}
	a.commits += r.TLS.Commits
	a.violations += r.TLS.Violations
	a.overflows += r.TLS.Overflows
	a.runUsed += r.TLS.Stats.RunUsed
	a.runViolated += r.TLS.Stats.RunViolated
	for _, p := range []*phaseRow{&r.Seq, &r.Profile, &r.TLS} {
		a.l1h += p.L1Hits
		a.l1m += p.L1Misses
		a.l2h += p.L2Hits
		a.l2m += p.L2Misses
		a.promotions += p.Tier.Promotions
		for _, d := range p.Tier.Demote {
			a.demotions += d
		}
	}
	if loops >= 0 {
		a.loops += int64(loops)
		a.replayed = true
	}
	a.selected += int64(r.Selected)
}

// speedupGeomean is Seq/TLS cycles over the reference set (Figure 8
// "actual").
func (a *simAgg) speedupGeomean() float64 { return geomean(a.speedups) }

// perLayer sets the exact per-layer metrics. cfg.loops needs replayed jobs
// and paper.speedup_err_pct programs with a paper figure; each is left out
// when the reference set has none.
func (a *simAgg) perLayer(m map[string]float64) {
	m["tls.commits"] = float64(a.commits)
	m["tls.violations"] = float64(a.violations)
	m["tls.overflows"] = float64(a.overflows)
	m["tls.used_frac"] = frac(float64(a.runUsed), float64(a.runUsed+a.runViolated))
	m["mem.l1_miss_frac"] = frac(float64(a.l1m), float64(a.l1h+a.l1m))
	m["mem.l2_miss_frac"] = frac(float64(a.l2m), float64(a.l2h+a.l2m))
	m["hydra.tier2_promotions"] = float64(a.promotions)
	m["hydra.tier2_demotions"] = float64(a.demotions)
	m["analyzer.loops_selected"] = float64(a.selected)
	m["tls.diverged_jobs"] = float64(a.diverged)
	if a.replayed {
		m["cfg.loops"] = float64(a.loops)
	}
	if len(a.paperErrs) > 0 {
		m["paper.speedup_err_pct"] = mean(a.paperErrs)
	}
}

// exactNames lists the metrics that must repeat bit for bit for one seed.
var exactNames = map[string]bool{
	"sim_speedup_geomean": true, "paper.speedup_err_pct": true,
	"tls.commits": true, "tls.violations": true, "tls.overflows": true, "tls.used_frac": true, "tls.diverged_jobs": true,
	"mem.l1_miss_frac": true, "mem.l2_miss_frac": true,
	"hydra.tier2_promotions": true, "hydra.tier2_demotions": true,
	"cfg.loops": true, "analyzer.loops_selected": true,
}

// checkDrift compares this run's exact metrics with those an earlier run of
// the same binary, workload, seed and mode stored under dir, and stores them
// when no earlier run did. It returns the names of metrics that drifted.
func checkDrift(dir, key string, metrics map[string]float64) ([]string, error) {
	exact := map[string]float64{}
	for name, v := range metrics {
		if exactNames[name] {
			exact[name] = v
		}
	}
	bin, err := binaryDigest()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "exact", bin[:16], key+".json")
	data, err := json.Marshal(exact)
	if err != nil {
		return nil, err
	}
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return nil, err
	}
	if bytes.Equal(prev, data) {
		return nil, nil
	}
	old := map[string]float64{}
	if err := json.Unmarshal(prev, &old); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var drift []string
	for name, v := range exact {
		if w, ok := old[name]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			drift = append(drift, fmt.Sprintf("%s: %v, earlier run %v", name, v, w))
		}
	}
	sort.Strings(drift)
	return drift, nil
}

// binaryDigest identifies the running build, so stored exact metrics are
// only ever compared between runs of the same code.
func binaryDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
