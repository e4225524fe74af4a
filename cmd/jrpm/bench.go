package main

import (
	"context"
	"fmt"
	"io"

	"jrpm/internal/analyzer"
	"jrpm/internal/bytecode"
	"jrpm/internal/core"
	fe "jrpm/internal/frontend"
	"jrpm/internal/report"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
	"jrpm/internal/workloads"
)

// benchFlags are the flags only bench takes.
type benchFlags struct {
	table, fig       int
	ablate           string
	attrib, progress bool
}

// parseBench parses a bench invocation. p.opts is what every run of every
// artifact starts from, so the pipeline flags reach tables, figures and
// ablations alike; a zero-fault plan leaves every cycle count unchanged.
func parseBench(ctx context.Context, args []string) (*pipeline, *benchFlags, error) {
	p := newPipeline("bench", flags{})
	c := &benchFlags{}
	p.fs.IntVar(&c.table, "table", 0, "render one table (1, 3 or 4)")
	p.fs.IntVar(&c.fig, "fig", 0, "render one figure (8, 9 or 10)")
	p.fs.StringVar(&c.ablate, "ablate", "", "run one ablation study: inductor, sync, alloc, locks, handlers, buffers, cpus or banks")
	p.fs.BoolVar(&c.attrib, "attribution", false, "render Table 3's optimization attribution columns (slow)")
	p.fs.BoolVar(&c.progress, "progress", false, "emit per-workload progress lines to stderr")
	if err := p.parse(ctx, args); err != nil {
		return nil, nil, err
	}
	if len(p.targets) > 0 {
		return nil, nil, usagef("bench takes no targets")
	}
	return p, c, nil
}

// benchCmd regenerates the paper's evaluation artifacts: every table and
// figure by default, or one -table, -fig, -ablate study or the
// -attribution columns.
func benchCmd(ctx context.Context, args []string) error {
	p, c, err := parseBench(ctx, args)
	if err != nil {
		return err
	}
	defer p.cancel()
	if p.start() {
		return nil
	}
	if c.ablate != "" {
		return ablation(c.ablate, p.opts)
	}
	if c.attrib {
		names := []string{"BitOps", "monteCarlo", "db", "mp3", "NeuralNet",
			"FourierTest", "jess", "deltaBlue", "Assignment", "moldyn"}
		text, err := report.Table3Opt(p.opts, names)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, text)
		return nil
	}

	all := c.table == 0 && c.fig == 0
	var results []*report.SuiteResult
	if all || c.table == 3 || c.table == 4 || c.fig != 0 {
		var progress io.Writer
		if c.progress {
			progress = stderr
		}
		if results, err = report.RunSuite(p.opts.Ctx, p.opts, nil, progress); err != nil {
			return err
		}
		if err := p.publish(report.SuiteMetrics(results), stdout); err != nil {
			return err
		}
	} else if p.metrics != "" {
		fmt.Fprintln(stderr, "jrpm bench: -metrics needs a suite run (table 3/4, a figure, or the default everything mode)")
	}
	if all || c.table == 1 {
		t := workloadTarget(workloads.ByName("FourierTest"))
		rNew, err := t.run(p.opts, core.Run)
		if err != nil {
			return err
		}
		old := p.opts
		old.Handlers = tls.OldHandlers
		rOld, err := t.run(old, core.Run)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Table1(rNew.TLS.Cycles, rOld.TLS.Cycles))
	}
	for _, a := range []struct {
		on     bool
		render func([]*report.SuiteResult) string
	}{
		{all || c.table == 3, report.Table3},
		{all || c.table == 4, report.Table4},
		{all || c.fig == 8, report.Figure8},
		{all || c.fig == 9, report.Figure9},
		{all || c.fig == 10, report.Figure10},
		{all, report.CategorySummary},
	} {
		if a.on {
			fmt.Fprintln(stdout, a.render(results))
		}
	}
	return nil
}

// ablation compares the full system against variants with one feature
// disabled, over the benchmarks that exercise it. Every variant derives
// from base.
func ablation(name string, base core.Options) error {
	type variant struct {
		label string
		opts  core.Options
	}
	mkAnalyzer := func(mod func(*analyzer.Config)) core.Options {
		o := base
		a := o.AnalyzerConfig()
		mod(&a)
		o.Analyzer = &a
		return o
	}

	var variants []variant
	var benches []string
	switch name {
	case "inductor":
		benches = []string{"BitOps", "FourierTest", "IDEA", "shallow"}
		variants = []variant{
			{"full system", base},
			{"no non-communicating inductors", mkAnalyzer(func(a *analyzer.Config) { a.NoInductors = true; a.NoResetable = true })},
		}
	case "sync":
		benches = []string{"monteCarlo", "db"}
		variants = []variant{
			{"full system", base},
			{"no thread synchronizing locks", mkAnalyzer(func(a *analyzer.Config) { a.NoSyncLocks = true })},
		}
	case "alloc":
		off := base
		off.VM.ParallelAlloc = false
		fmt.Fprintln(stdout, "Ablation: alloc (per-iteration allocation microbenchmark, §5.2)")
		for _, v := range []variant{{"per-CPU free lists", base}, {"shared free list", off}} {
			res, err := core.Run(allocChurnProgram(), v.opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-28s %6.2fx speedup, %d violations\n",
				v.label, res.SpeedupActual(), res.TLS.Violations)
		}
		return nil
	case "locks":
		benches = []string{"jess", "db"}
		off := base
		off.VM.ElideLocks = false
		variants = []variant{{"speculation-aware locks", base}, {"original object locks", off}}
	case "handlers":
		benches = []string{"BitOps", "FourierTest", "LuFactor", "decJpeg"}
		old := base
		old.Handlers = tls.OldHandlers
		variants = []variant{{"new handlers (Table 1)", base}, {"old handlers", old}}
	case "buffers":
		benches = []string{"raytrace", "fft"}
		for _, lines := range []int{16, 32, 64, 128} {
			o := base
			t := tls.DefaultConfig(o.NCPU)
			t.StoreBufferLines = lines
			o.TLS = &t
			variants = append(variants, variant{fmt.Sprintf("store buffer %d lines", lines), o})
		}
	case "cpus":
		benches = []string{"FourierTest", "shallow", "IDEA", "mp3"}
		for _, n := range []int{2, 4, 8} {
			o := base
			o.NCPU = n
			variants = append(variants, variant{fmt.Sprintf("%d CPUs", n), o})
		}
	case "banks":
		// With a single comparator bank, inner loops of a nest go
		// unprofiled while an outer loop holds the bank; the loops the
		// analyzer would have chosen (LuFactor's row updates, euler's
		// sweeps) are never seen.
		benches = []string{"LuFactor", "euler", "mp3"}
		for _, n := range []int{1, 2, 8} {
			o := base
			t := tracer.DefaultConfig()
			t.NumBanks = n
			o.Tracer = &t
			variants = append(variants, variant{fmt.Sprintf("%d comparator banks", n), o})
		}
	default:
		return usagef("unknown ablation %q", name)
	}

	fmt.Fprintf(stdout, "Ablation: %s\n", name)
	fmt.Fprintf(stdout, "%-14s", "benchmark")
	for _, v := range variants {
		fmt.Fprintf(stdout, " %28s", v.label)
	}
	fmt.Fprintln(stdout)
	for _, bn := range benches {
		t := workloadTarget(workloads.ByName(bn))
		fmt.Fprintf(stdout, "%-14s", bn)
		for _, v := range variants {
			res, err := t.run(v.opts, core.Run)
			if err != nil {
				return err
			}
			if !res.OutputsMatch {
				return fmt.Errorf("%s: output mismatch under %q", bn, v.label)
			}
			fmt.Fprintf(stdout, " %27.2fx", res.SpeedupActual())
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// allocChurnProgram allocates an object on every iteration of a parallel
// loop — the access pattern that made the paper parallelize the memory
// allocator (§5.2): with a shared free list every speculative thread
// serializes on the list head.
func allocChurnProgram() *bytecode.Program {
	p := fe.NewProgram("allocChurn")
	box := p.Class("Box", "v", "w", "x", "y")
	p.Func("main", nil, false).Body(
		fe.Set("sum", fe.I(0)),
		fe.ForUp("i", fe.I(0), fe.I(256),
			fe.Set("b", fe.NewE(box)),
			fe.SetField(fe.L("b"), box, "v", fe.Mul(fe.L("i"), fe.I(3))),
			fe.Set("sum", fe.Add(fe.L("sum"), fe.FieldE(fe.L("b"), box, "v"))),
		),
		fe.Print(fe.L("sum")),
	)
	return p.MustBuild()
}
