package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/core"
	"jrpm/internal/diagnose"
	"jrpm/internal/faultinject"
	"jrpm/internal/hydra"
	"jrpm/internal/isa"
	"jrpm/internal/jit"
	"jrpm/internal/obs"
	"jrpm/internal/report"
	"jrpm/internal/serve"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// options binds the pipeline flags to the options every run of the
// invocation starts from. ctx carries SIGINT/SIGTERM and -timeout adds a
// deadline; the caller must call the returned cancel func.
func (f *flags) options(ctx context.Context) (core.Options, context.CancelFunc, error) {
	o := core.DefaultOptions()
	o.NCPU = f.cpus
	off, err := f.tierOff()
	if err != nil {
		return o, nil, err
	}
	o.Tier2Off = off
	if f.budget > 0 {
		o.MaxCycles = f.budget
	}
	if f.faults != "" {
		plan, err := faultinject.Parse(f.faults)
		if err != nil {
			return o, nil, usageError{err}
		}
		o.Faults = &plan
	}
	if f.guard {
		g := tls.DefaultGuardConfig()
		o.Guard = &g
	}
	cancel := context.CancelFunc(func() {})
	if f.timeout > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, f.timeout,
			fmt.Errorf("%w: -timeout %v elapsed", context.DeadlineExceeded, f.timeout))
	}
	o.Ctx = ctx
	return o, cancel, nil
}

// tierOff binds -tier.
func (f *flags) tierOff() (bool, error) {
	off, err := core.ParseTierFlag(f.tier)
	if err != nil {
		return false, usageError{err}
	}
	return off, nil
}

// pipeline is a parsed pipeline subcommand: the options every run starts
// from and the targets the command line named.
type pipeline struct {
	flags
	fs      *flag.FlagSet
	opts    core.Options
	cancel  context.CancelFunc
	targets []target
}

// newPipeline returns a pipeline subcommand's parser: the pipeline flags
// plus the shared groups named by define, with defaults preset in f.
func newPipeline(sub string, f flags, define ...func(*flags, *flag.FlagSet)) *pipeline {
	p := &pipeline{flags: f}
	p.fs = p.newFlagSet(sub, append(define, (*flags).definePipeline)...)
	return p
}

// parse parses args, binds the options and resolves the targets: -w, if
// the subcommand has it, then the arguments.
func (p *pipeline) parse(ctx context.Context, args []string) (err error) {
	p.fs.Parse(args)
	if p.opts, p.cancel, err = p.options(ctx); err != nil {
		return err
	}
	names := p.fs.Args()
	if p.w != "" {
		names = append([]string{p.w}, names...)
	}
	for _, n := range names {
		t, err := resolve(n)
		if err != nil {
			return err
		}
		p.targets = append(p.targets, t)
	}
	return nil
}

// suite returns the targets, or every workload when none was named.
func (p *pipeline) suite() []target {
	if len(p.targets) > 0 {
		return p.targets
	}
	var all []target
	for _, w := range workloads.All() {
		all = append(all, workloadTarget(w))
	}
	return all
}

// target is one program to run: a Table 3 workload or a jasm source file.
// Both resolve through serve.BuildProgram, the loader the service uses, so
// a workload name means the same program and heap size everywhere.
type target struct {
	name string
	spec serve.JobSpec
	w    *workloads.Workload // nil for a source file
}

func workloadTarget(w *workloads.Workload) target {
	return target{name: w.Name, spec: serve.JobSpec{Workload: w.Name}, w: w}
}

// resolve reads a command-line target: a workload name, else a file path.
func resolve(arg string) (target, error) {
	if w := workloads.ByName(arg); w != nil {
		return workloadTarget(w), nil
	}
	src, err := os.ReadFile(arg)
	if errors.Is(err, fs.ErrNotExist) && !strings.ContainsRune(arg, os.PathSeparator) &&
		!strings.HasSuffix(arg, ".jasm") {
		return target{}, usagef("unknown workload %q (try -list)", arg)
	} else if err != nil {
		return target{}, err
	}
	return target{name: strings.TrimSuffix(filepath.Base(arg), ".jasm"),
		spec: serve.JobSpec{Source: string(src)}}, nil
}

// program builds a fresh copy of the target's program and sizes opts' heap
// for it.
func (t target) program(opts *core.Options) (*bytecode.Program, error) {
	bp, heapWords, err := serve.BuildProgram(t.spec)
	if heapWords > 0 {
		opts.VM.HeapWords = heapWords
	}
	return bp, err
}

// run builds the target and runs stage (core.Run, RunProfile or
// RunSequential) on a copy of opts sized for it.
func (t target) run(opts core.Options, stage func(*bytecode.Program, core.Options) (*core.Result, error)) (*core.Result, error) {
	bp, err := t.program(&opts)
	if err != nil {
		return nil, err
	}
	return stage(bp, opts)
}

// runFlags are the flags only run takes.
type runFlags struct {
	seq, loops, transformed bool
}

// parseRun parses a run invocation. p.opts is what every run gets, before
// its target's heap size.
func parseRun(ctx context.Context, args []string) (*pipeline, *runFlags, error) {
	p := newPipeline("run", flags{})
	c := &runFlags{}
	p.fs.BoolVar(&c.seq, "seq", false, "run only the sequential baseline of a jasm program")
	p.fs.BoolVar(&c.loops, "loops", false, "print the analyzer's per-loop decisions under each workload row")
	p.fs.BoolVar(&c.transformed, "transformed", false, "run each workload's Table 4 transformed variant")
	old := p.fs.Bool("old", false, "use the previous-generation TLS handlers (Table 1 \"Old\")")
	noalloc := p.fs.Bool("noalloc", false, "disable per-CPU speculative free lists (§5.2)")
	nolocks := p.fs.Bool("nolocks", false, "disable speculation-aware object locks (§5.3)")
	if err := p.parse(ctx, args); err != nil {
		return nil, nil, err
	}
	if *old {
		p.opts.Handlers = tls.OldHandlers
	}
	p.opts.VM.ParallelAlloc = !*noalloc
	p.opts.VM.ElideLocks = !*nolocks
	return p, c, nil
}

// runCmd runs targets through the pipeline. One jasm program prints what
// the program printed, with the cycle counts on stderr; workloads (the
// whole suite when none is named) print one summary row each.
func runCmd(ctx context.Context, args []string) error {
	p, c, err := parseRun(ctx, args)
	if err != nil {
		return err
	}
	defer p.cancel()
	if p.start() {
		return nil
	}
	if len(p.targets) == 1 && p.targets[0].w == nil {
		return c.program(p)
	}
	if c.seq {
		return usagef("-seq takes one jasm program")
	}
	return c.table(p)
}

// program runs one jasm program and prints its output.
func (c *runFlags) program(p *pipeline) error {
	stage, phase := core.Run, func(r *core.Result) *core.Phase { return &r.TLS }
	if c.seq {
		stage, phase = core.RunSequential, func(r *core.Result) *core.Phase { return &r.Seq }
	}
	res, err := p.targets[0].run(p.opts, stage)
	if err != nil {
		return err
	}
	if !c.seq && !res.OutputsMatch {
		return errors.New("internal error: speculative output mismatch")
	}
	for _, v := range phase(res).Output {
		fmt.Fprintln(stdout, v)
	}
	if err := p.publish(res.Metrics(), stdout); err != nil {
		return err
	}
	if c.seq {
		fmt.Fprintf(stderr, "sequential: %d cycles\n", res.Seq.Cycles)
		return nil
	}
	fmt.Fprintf(stderr, "sequential: %d cycles; speculative: %d cycles (%.2fx on %d CPUs)\n",
		res.Seq.Cycles, res.TLS.Cycles, res.SpeedupActual(), p.opts.NCPU)
	if len(res.TLS.FaultsFired) > 0 {
		fmt.Fprintf(stderr, "faults fired: %v; oracle checked: %v\n", res.TLS.FaultsFired, res.OracleChecked)
	}
	if res.JITFallback {
		fmt.Fprintln(stderr, "TLS recompilation failed; speculative phase ran the sequential image")
	}
	for _, id := range res.TLS.DecertifiedLoops {
		fmt.Fprintf(stderr, "guard: loop %d decertified (running sequentially)\n", id)
	}
	return nil
}

// table prints one summary row per target.
func (c *runFlags) table(p *pipeline) error {
	fmt.Fprintf(stdout, "%-14s %9s %9s %9s %9s %9s %6s\n",
		"benchmark", "seq(cyc)", "speedup", "predict", "total", "profile%", "viol")
	reg := obs.NewRegistry()
	for _, t := range p.suite() {
		opts := p.opts
		bp, err := t.program(&opts)
		if err != nil {
			return err
		}
		if c.transformed {
			if t.w == nil || t.w.BuildTransformed == nil {
				return usagef("%s has no transformed variant", t.name)
			}
			bp = t.w.BuildTransformed()
		}
		res, err := core.Run(bp, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		status := ""
		if !res.OutputsMatch {
			status = "  OUTPUT MISMATCH"
		}
		fmt.Fprintf(stdout, "%-14s %9d %8.2fx %8.2fx %8.2fx %8.1f%% %6d%s\n",
			t.name, res.Seq.Cycles, res.SpeedupActual(), res.SpeedupPredicted(),
			res.TotalSpeedup(), res.ProfileSlowdown()*100, res.TLS.Violations, status)
		if c.loops {
			printDecisions(res)
		}
		res.FillMetrics(reg, fmt.Sprintf("workload=%q", t.name))
	}
	return p.publish(reg, stdout)
}

func printDecisions(res *core.Result) {
	for _, d := range res.Analysis.Decisions {
		mark := " "
		if d.Selected {
			mark = "*"
		}
		extra := ""
		if d.Stats != nil {
			extra = fmt.Sprintf(" iters=%d entries=%d T=%.0f ovf=%.2f",
				d.Stats.Iterations, d.Stats.Entries, d.Stats.AvgThreadSize(),
				d.Stats.OverflowFreq())
		}
		tags := ""
		if d.Inner {
			tags += " multilevel-inner"
		}
		if d.Multilevel {
			tags += " multilevel-outer"
		}
		if d.Hoisted {
			tags += " hoisted"
		}
		fmt.Fprintf(stdout, "  %s loop %4d (m%d.%d depth %d) pred=%.2f cov=%4.1f%% ind=%d res=%d red=%d sync=%d comm=%d%s — %s%s\n",
			mark, d.LoopID, d.MethodID, d.LoopIndex, d.Depth,
			d.Prediction.Speedup, 100*d.Coverage,
			d.Inductors, d.Resetable, d.Reductions, d.SyncLocks, d.Comm,
			tags, d.Reason, extra)
	}
}

// parseDoctor parses a doctor invocation; -json is the returned flag.
func parseDoctor(ctx context.Context, args []string) (*pipeline, *bool, error) {
	p := newPipeline("doctor", flags{out: "-"}, (*flags).defineTarget)
	asJSON := p.fs.Bool("json", false, "emit the machine-readable JSON report instead of text")
	err := p.parse(ctx, args)
	// The ledger is passive: the report describes exactly the run you would
	// get without it, cycle for cycle.
	p.opts.Diagnose = true
	return p, asJSON, err
}

// doctorCmd prints the speculation doctor's diagnosis of one target: the
// per-loop cycle-conservation ledger, violation sites ranked by discarded
// cycles with their §4.2 transformation hints, and the analyzer's selection
// reasoning. With no target it prints the suite digest instead.
func doctorCmd(ctx context.Context, args []string) error {
	p, asJSON, err := parseDoctor(ctx, args)
	if err != nil {
		return err
	}
	defer p.cancel()
	if p.start() {
		return nil
	}
	var reg *obs.Registry
	var write func(io.Writer) error
	switch len(p.targets) {
	case 0:
		results, err := report.RunSuiteParallelContext(p.opts.Ctx, p.opts, nil, nil)
		if err != nil {
			return err
		}
		reg = report.SuiteMetrics(results)
		write = func(w io.Writer) error {
			_, err := fmt.Fprintln(w, report.DoctorSummary(results))
			return err
		}
	case 1:
		t := p.targets[0]
		res, err := t.run(p.opts, core.Run)
		if err != nil {
			return err
		}
		res.Name = t.name
		rep, err := diagnose.Build(res)
		if err != nil {
			return err
		}
		reg = res.Metrics()
		write = func(w io.Writer) error {
			if *asJSON {
				_, err := w.Write(rep.JSON())
				return err
			}
			rep.WriteText(w)
			return nil
		}
	default:
		return usagef("doctor takes one target")
	}
	if err := create(p.out, stdout, write); err != nil {
		return err
	}
	return p.publish(reg, stdout)
}

// parseTrace parses a trace invocation and attaches the flight-recorder
// ring to the options.
func parseTrace(ctx context.Context, args []string) (*pipeline, *obs.Ring, error) {
	p := newPipeline("trace", flags{out: "trace.json"}, (*flags).defineTarget)
	events := p.fs.Int("events", 1<<20, "flight-recorder ring capacity in events (the oldest are overwritten)")
	cache := p.fs.Bool("cache", false, "also record per-access cache events (L1/L2 miss, bus transfer)")
	err := p.parse(ctx, args)
	mask := obs.MaskDefault
	if *cache {
		mask = obs.MaskAll
	}
	ring := obs.NewRingMasked(*events, mask)
	p.opts.Recorder = ring
	return p, ring, err
}

// traceCmd records the speculative phase with the flight recorder and
// writes it as Chrome trace-event JSON (open at ui.perfetto.dev): one
// target to -o ("" skips the file), or with no target every workload into
// the directory -o names, as NAME.trace.json.
func traceCmd(ctx context.Context, args []string) error {
	p, ring, err := parseTrace(ctx, args)
	if err != nil {
		return err
	}
	defer p.cancel()
	if p.start() {
		return nil
	}
	if len(p.targets) > 1 {
		return usagef("trace takes one target")
	}
	suite := len(p.targets) == 0
	if suite {
		if err := os.MkdirAll(p.out, 0o755); err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	// Runs are sequential because each machine needs the ring to itself.
	for i, t := range p.suite() {
		ring.Reset()
		res, err := t.run(p.opts, core.Run)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if !res.OutputsMatch {
			return fmt.Errorf("%s: speculative output differs from sequential", t.name)
		}
		path, labels := p.out, ""
		if suite {
			path, labels = filepath.Join(p.out, t.name+".trace.json"), fmt.Sprintf("workload=%q", t.name)
		}
		if path != "" {
			err := create(path, stdout, func(w io.Writer) error {
				return obs.WriteChromeTrace(w, ring.Events(), p.opts.NCPU, t.name)
			})
			if err != nil {
				return err
			}
		}
		res.FillMetrics(reg, labels)
		if !suite {
			obs.SummarizeEvents(reg, ring.Events())
			reg.Gauge("jrpm_trace_events_recorded").Set(float64(ring.Total()))
			reg.Gauge("jrpm_trace_events_dropped").Set(float64(ring.Dropped()))
		}
		fmt.Fprintf(stderr, "[%d] %s: %d cycles speculative (%.2fx over sequential); %d events recorded, %d dropped -> %q\n",
			i+1, t.name, res.TLS.Cycles, res.SpeedupActual(), ring.Total(), ring.Dropped(), path)
	}
	return p.publish(reg, stdout)
}

// disCmd disassembles one target: the bytecode the frontend produced and
// the native code microJIT emits in one compilation mode. With -blocks it
// also prints the tier-2 block layout — how the block engine carves each
// method into fused superinstruction blocks.
func disCmd(ctx context.Context, args []string) error {
	var f flags
	fs := f.newFlagSet("dis")
	mode := fs.String("mode", "plain", "compilation mode: plain, annotated or tls")
	method := fs.String("method", "", "only this method")
	blocks := fs.Bool("blocks", false, "print the tier-2 block layout of each method")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usagef("usage: jrpm dis [-mode plain|annotated|tls] [-method NAME] [-blocks] TARGET")
	}
	t, err := resolve(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Ctx = ctx
	bp, err := t.program(&opts)
	if err != nil {
		return err
	}
	bp = jit.Inline(bp) // match the pipeline's pre-pass
	info := cfg.AnalyzeProgram(bp)

	jm := jit.ModePlain
	var sel *jit.Selection
	switch *mode {
	case "plain":
	case "annotated":
		jm = jit.ModeAnnotated
	case "tls":
		// The selection the TLS recompilation would use: the pipeline up
		// to and including decomposition analysis.
		jm = jit.ModeTLS
		res, err := t.run(opts, core.RunProfile)
		if err != nil {
			return err
		}
		sel = res.Analysis.Selection
	default:
		return usagef("bad mode %q", *mode)
	}

	fmt.Fprintf(stdout, "== %s: bytecode ==\n", bp.Name)
	for _, m := range bp.Methods {
		if *method != "" && m.Name != *method {
			continue
		}
		fmt.Fprintln(stdout, bytecode.Disassemble(m))
	}

	img, rep, err := jit.Compile(bp, info, jm, sel)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "== %s: native code (%s mode, %d instructions, modelled compile %d cycles) ==\n",
		bp.Name, *mode, rep.CodeSize, rep.Cycles)
	for _, m := range img.Methods {
		if *method != "" && m.Name != *method {
			continue
		}
		fmt.Fprintf(stdout, "method %q (frame %d words, saved %v)\n", m.Name, m.FrameWords, m.SavedRegs)
		fmt.Fprint(stdout, isa.Disassemble(m.Code))
		for _, h := range m.Handlers {
			fmt.Fprintf(stdout, "  catch kind=%d [%d,%d) -> %d\n", h.Kind, h.Start, h.End, h.Target)
		}
	}
	ids := make([]int64, 0, len(img.STLs))
	for id := range img.STLs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		d := img.STLs[id]
		fmt.Fprintf(stdout, "STL %d: loop %d, method %d, init pc %d, body [%d,%d), inner=%v hoisted=%v\n",
			id, d.LoopID, d.Method, d.InitPC, d.BodyStart, d.BodyEnd, d.Inner, d.Hoisted)
	}
	if !*blocks {
		return nil
	}
	// The tier-2 block layout: one line per block with its entry pc,
	// instruction span, fused dispatch units and summed static cost.
	// Boundary pcs (scheduler/runtime ops the engine never fuses) are
	// listed with the demotion bucket they charge.
	fmt.Fprintf(stdout, "== %s: tier-2 block layout ==\n", img.Name)
	for id, m := range img.Methods {
		if *method != "" && m.Name != *method {
			continue
		}
		fmt.Fprintf(stdout, "method %q\n", m.Name)
		for _, b := range hydra.BlockLayout(img, id) {
			if b.Boundary != "" {
				fmt.Fprintf(stdout, "  pc %4d  boundary (%s)\n", b.EntryPC, b.Boundary)
				continue
			}
			fmt.Fprintf(stdout, "  pc %4d  len %2d  ops %2d  cost %3d  mem %d  %s\n",
				b.EntryPC, b.Len, b.Ops, b.Cost, b.MemOps, strings.Join(b.Fused, " "))
		}
	}
	return nil
}
