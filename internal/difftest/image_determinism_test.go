package difftest

import (
	"fmt"
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/progen"
	"jrpm/internal/workloads"
)

// TestImageDeterminism compiles every Table 3 workload and a slice of
// progen programs eight times in each JIT mode and requires one image
// fingerprint per program and mode. Compiled images are artifacts: a
// checkpoint carries its image's fingerprint, so an image that depends on
// anything but the program (a Go map's iteration order, say) makes a
// checkpoint from one process refuse to restore in the next. Equal cycle
// counts do not show this; only the artifact does.
func TestImageDeterminism(t *testing.T) {
	type prog struct {
		name      string
		build     func() *bytecode.Program
		heapWords int
	}
	var progs []prog
	for _, w := range workloads.All() {
		progs = append(progs, prog{w.Name, w.Build, w.HeapWords})
	}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := progen.Generate(seed, progen.DefaultConfig())
		if _, _, err := progen.Lower(g); err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		build := func() *bytecode.Program {
			_, bp, _ := progen.Lower(g)
			return bp
		}
		progs = append(progs, prog{name: fmt.Sprintf("progen-%d", seed), build: build})
	}
	const reps = 8
	for _, p := range progs {
		opts := core.DefaultOptions()
		if p.heapWords > 0 {
			opts.VM.HeapWords = p.heapWords
		}
		res, err := core.RunProfile(p.build(), opts)
		if err != nil {
			t.Fatalf("%s: profile run: %v", p.name, err)
		}
		modes := []struct {
			name string
			mode jit.Mode
			sel  *jit.Selection
		}{
			{"plain", jit.ModePlain, nil},
			{"annotated", jit.ModeAnnotated, nil},
			{"tls", jit.ModeTLS, res.Analysis.Selection},
		}
		fps := make([]map[uint64]bool, len(modes))
		for i := range fps {
			fps[i] = map[uint64]bool{}
		}
		for rep := 0; rep < reps; rep++ {
			bp := jit.Inline(p.build())
			info := cfg.AnalyzeProgram(bp)
			for i, md := range modes {
				img, _, err := jit.Compile(bp, info, md.mode, md.sel)
				if err != nil {
					t.Fatalf("%s: %s compile: %v", p.name, md.name, err)
				}
				fps[i][hydra.ImageFingerprint(img)] = true
			}
		}
		for i, md := range modes {
			if n := len(fps[i]); n != 1 {
				t.Errorf("%s: %s mode: %d distinct image fingerprints in %d compiles", p.name, md.name, n, reps)
			}
		}
	}
}
