package difftest

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/faultinject"
	fe "jrpm/internal/frontend"
	"jrpm/internal/progen"
	"jrpm/internal/tls"
)

// subject is one program of the differential table: the AST the oracle
// interprets, the bytecode the pipeline runs, and the progen tree both were
// lowered from (nil for a hand-built program).
type subject struct {
	name string
	seed int64
	tree *progen.Prog
	fp   *fe.Program
	bp   *bytecode.Program
}

// shape is one machine configuration of the differential table. Every
// shape runs its progen seeds and every hand-built program.
type shape struct {
	name         string
	first        int64 // first progen seed
	seeds, short int   // progen seed count, normal and under -short
	opts         func(seed int64) core.Options
	// viaCheck sends progen subjects through progen.Check, every leg on,
	// on opts' CPU count; hand-built programs take the common path.
	viaCheck bool
	// check inspects a run whose phases all matched the oracle.
	check func(t *testing.T, s subject, opts core.Options, res *core.Result)
}

var shapes = []shape{
	{name: "4cpu", first: 0, seeds: 60, short: 12, opts: func(int64) core.Options {
		return core.DefaultOptions()
	}},
	// Tiny speculative buffers and the old handlers: the overflow-stall
	// and restart machinery must never change results.
	{name: "small-buffers", first: 100, seeds: 20, short: 20, opts: func(int64) core.Options {
		opts := core.DefaultOptions()
		cfg := tls.DefaultConfig(opts.NCPU)
		cfg.StoreBufferLines = 3
		cfg.LoadBufferLines = 16
		opts.TLS = &cfg
		opts.Handlers = tls.OldHandlers
		return opts
	}},
	{name: "2cpu", first: 200, seeds: 12, short: 12, opts: onCPUs(2), viaCheck: true},
	{name: "8cpu", first: 200, seeds: 12, short: 12, opts: onCPUs(8), viaCheck: true},
	// A seeded adversarial plan with the guard armed: every run completes
	// and passes the post-commit oracle.
	{name: "faults", first: 300, seeds: 16, short: 6, opts: func(seed int64) core.Options {
		opts := core.DefaultOptions()
		opts.Faults = &faultinject.Plan{Seed: seed, RAW: 0.01, Overflow: 0.05, Bus: 0.1, BusDelay: 6, Heap: 0.005}
		guard := tls.DefaultGuardConfig()
		opts.Guard = &guard
		return opts
	}, check: func(t *testing.T, s subject, _ core.Options, res *core.Result) {
		if !res.OracleChecked {
			t.Errorf("%s: oracle not checked under an active plan", s.name)
		}
	}},
	// The same program and plan twice agree cycle for cycle and fault for
	// fault.
	{name: "fault-rerun", first: 77, seeds: 1, short: 1, opts: func(seed int64) core.Options {
		opts := core.DefaultOptions()
		opts.Faults = &faultinject.Plan{Seed: seed, RAW: 0.02, Overflow: 0.1, Bus: 0.2, BusDelay: 4}
		return opts
	}, check: func(t *testing.T, s subject, opts core.Options, a *core.Result) {
		b, err := core.Run(s.bp, opts)
		if err != nil {
			t.Fatalf("%s: second run: %v", s.name, err)
		}
		if a.TLS.Cycles != b.TLS.Cycles {
			t.Errorf("%s: cycles diverged: %d vs %d", s.name, a.TLS.Cycles, b.TLS.Cycles)
		}
		if !maps.Equal(a.TLS.FaultsFired, b.TLS.FaultsFired) {
			t.Errorf("%s: fault counts diverged: %v vs %v", s.name, a.TLS.FaultsFired, b.TLS.FaultsFired)
		}
	}},
}

func onCPUs(n int) func(int64) core.Options {
	return func(int64) core.Options {
		opts := core.DefaultOptions()
		opts.NCPU = n
		return opts
	}
}

// TestDifferentialSuite is the headline differential test: on every machine
// shape, the sequential, profiled and speculative runs of every program
// match the independent AST interpreter.
func TestDifferentialSuite(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			n := sh.seeds
			if testing.Short() {
				n = sh.short
			}
			for seed := sh.first; seed < sh.first+int64(n); seed++ {
				tree := progen.Generate(seed, progen.DefaultConfig())
				fp, bp, err := progen.Lower(tree)
				if err != nil {
					t.Fatalf("seed %d: lowering: %v", seed, err)
				}
				sh.run(t, subject{fmt.Sprintf("seed %d", seed), seed, tree, fp, bp})
			}
			for _, s := range handBuilt() {
				sh.run(t, s)
			}
		})
	}
}

// TestGeneratorDeterminism checks that the table's programs are
// reproducible. For each shape's first seed, and for each hand-built
// program, building twice gives the same bytecode and the same oracle
// output. A failure message names a seed, and that seed must rebuild the
// same program when the test is rerun.
func TestGeneratorDeterminism(t *testing.T) {
	build := func(seed int64) subject {
		tree := progen.Generate(seed, progen.DefaultConfig())
		fp, bp, err := progen.Lower(tree)
		if err != nil {
			t.Fatalf("seed %d: lowering: %v", seed, err)
		}
		return subject{fmt.Sprintf("seed %d", seed), seed, tree, fp, bp}
	}
	var pairs [][2]subject
	for _, sh := range shapes {
		pairs = append(pairs, [2]subject{build(sh.first), build(sh.first)})
	}
	a, b := handBuilt(), handBuilt()
	for i := range a {
		pairs = append(pairs, [2]subject{a[i], b[i]})
	}
	for _, p := range pairs {
		if codec.ProgramHash(p[0].bp) != codec.ProgramHash(p[1].bp) {
			t.Errorf("%s: two builds gave different bytecode", p[0].name)
		}
		wa, err := p[0].fp.Interpret(50_000_000)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p[0].name, err)
		}
		wb, err := p[1].fp.Interpret(50_000_000)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p[1].name, err)
		}
		if !slices.Equal(wa, wb) {
			t.Errorf("%s: two builds gave different oracle output", p[0].name)
		}
	}
	if codec.ProgramHash(build(1).bp) == codec.ProgramHash(build(2).bp) {
		t.Error("seeds 1 and 2 built identical programs")
	}
}

func (sh shape) run(t *testing.T, s subject) {
	opts := sh.opts(s.seed)
	if sh.viaCheck && s.tree != nil {
		cc := progen.DefaultCheckConfig()
		cc.NCPU = opts.NCPU
		if v := progen.Check(s.tree, cc); v.Diverged() {
			t.Errorf("%s: %s: %s", s.name, v.Divergence, v.Detail)
		}
		return
	}
	want, err := s.fp.Interpret(50_000_000)
	if err != nil {
		t.Fatalf("%s: oracle: %v", s.name, err)
	}
	res, err := core.Run(s.bp, opts)
	if err != nil {
		t.Fatalf("%s: pipeline: %v", s.name, err)
	}
	for _, ph := range []struct {
		name string
		got  []int64
	}{{"sequential", res.Seq.Output}, {"profiled", res.Profile.Output}, {"speculative", res.TLS.Output}} {
		if !slices.Equal(ph.got, want) {
			t.Errorf("%s: %s output %v, oracle %v (faults fired: %v)", s.name, ph.name, ph.got, want, res.TLS.FaultsFired)
		}
	}
	if s.tree == nil && res.TLS.Commits == 0 {
		t.Errorf("%s: no longer speculates (0 commits)", s.name)
	}
	if sh.check != nil {
		sh.check(t, s, opts, res)
	}
}

// handBuilt returns the table's programs for the two shapes progen's
// grammar cannot express.
func handBuilt() []subject {
	var out []subject
	for _, fp := range []*fe.Program{branchingHelper(), reusedCounter()} {
		bp := fp.MustBuild()
		out = append(out, subject{name: bp.Name, fp: fp, bp: bp})
	}
	return out
}

// branchingHelper calls a leaf helper with an if and two returns from a
// selected STL, so the inliner splices a branch and an early exit into
// speculative code. progen's mix helper is straight-line.
func branchingHelper() *fe.Program {
	p := fe.NewProgram("branching-helper")
	mix := p.Func("mix", []string{"x", "y"}, true)
	mix.Body(
		fe.If(fe.Lt(fe.L("x"), fe.L("y")),
			fe.S(fe.Ret(fe.Add(fe.Mul(fe.L("x"), fe.I(73)), fe.L("y")))), nil),
		fe.Ret(fe.BXor(fe.L("x"), fe.Add(fe.L("y"), fe.I(31)))),
	)
	main := p.Func("main", nil, false)
	main.Body(
		fe.Set("a", fe.NewArr(fe.I(48))),
		fe.ForUp("i", fe.I(0), fe.I(48),
			fe.SetIdx(fe.L("a"), fe.L("i"), fe.Rem(fe.Mul(fe.L("i"), fe.I(37)), fe.I(1009)))),
		fe.ForUp("j", fe.I(0), fe.I(48),
			fe.SetIdx(fe.L("a"), fe.L("j"),
				fe.CallE(mix, fe.Idx(fe.L("a"), fe.L("j")), fe.Mul(fe.L("j"), fe.I(21))))),
		checksum("a", 48),
	)
	return p
}

// reusedCounter reuses a finished loop's counter as a later loop's
// reduction: the counter's final value is the reduction's start value.
// progen gives every loop a fresh variable.
func reusedCounter() *fe.Program {
	p := fe.NewProgram("reused-counter")
	main := p.Func("main", nil, false)
	main.Body(
		fe.Set("a", fe.NewArr(fe.I(48))),
		fe.ForUp("i", fe.I(0), fe.I(48),
			fe.SetIdx(fe.L("a"), fe.L("i"), fe.Rem(fe.Mul(fe.L("i"), fe.I(37)), fe.I(1009)))),
		fe.ForUp("j", fe.I(0), fe.I(48),
			fe.Set("i", fe.Add(fe.L("i"), fe.Idx(fe.L("a"), fe.L("j"))))),
		fe.Print(fe.L("i")),
		fe.Print(fe.L("j")),
		checksum("a", 48),
	)
	return p
}

// checksum prints a multiplicative checksum of array a's n words.
func checksum(a string, n int64) []fe.Stmt {
	return fe.Block(
		fe.Set("ck", fe.I(0)),
		fe.ForUp("q", fe.I(0), fe.I(n),
			fe.Set("ck", fe.Add(fe.Mul(fe.L("ck"), fe.I(31)), fe.Idx(fe.L(a), fe.L("q"))))),
		fe.Print(fe.L("ck")),
	)
}
