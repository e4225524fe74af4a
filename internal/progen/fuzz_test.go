package progen

import (
	"os"
	"testing"
)

// FuzzDifferential is the native-fuzzing entry to the conformance suite:
// each input seed becomes a generated program checked across the oracle,
// sequential, profiled, speculative and rerun executions. Any divergence is
// a bug in the execution stack (or the suite) and fails the target; go's
// fuzzer then minimizes the *seed*, and the shrinker (see jrpm fuzz or
// TestChaosDetectedAndShrunk) minimizes the *program*.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Add(int64(-1))
	f.Add(int64(1 << 40))
	// Seed -32 is a regression: it generates an outer loop carrying a
	// divided local through a Comm slot around a conditional multilevel
	// inner STL, which exposed an off-by-one in the switch-in inductor
	// rebase (one outer iteration was skipped after the switch back out).
	f.Add(int64(-32))
	cc := CheckConfig{NCPU: 4, Rerun: true}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := Generate(seed, QuickConfig())
		v := Check(p, cc)
		if v.Diverged() {
			asm, _ := Asm(p)
			t.Fatalf("seed %d diverged on leg %q: %s\n%s", seed, v.Divergence, v.Detail, asm)
		}
	})
}

// TestWriteChaosReproCorpus regenerates the checked-in reproducer corpus
// under testdata/repros/. It only runs when PROGEN_WRITE_REPROS is set —
// the files are committed artifacts, and TestReproCorpus replays them on
// every test run.
func TestWriteChaosReproCorpus(t *testing.T) {
	if os.Getenv("PROGEN_WRITE_REPROS") == "" {
		t.Skip("set PROGEN_WRITE_REPROS=1 to regenerate the corpus")
	}
	cc := CheckConfig{NCPU: 4, Chaos: true}
	wrote := 0
	for seed := int64(1); seed <= 400 && wrote < 2; seed++ {
		p := Generate(seed, DefaultConfig())
		if !Check(p, cc).Diverged() {
			continue
		}
		sr := Shrink(p, cc, 600)
		if !sr.Verdict.Diverged() {
			continue
		}
		path, err := NewRepro(sr, cc).Write("testdata/repros")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (total=%d kernel=%d)", path, sr.Total, sr.Kernel)
		wrote++
	}
	if wrote == 0 {
		t.Fatal("no chaos divergence found to write")
	}
}
