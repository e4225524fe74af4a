// Package core is the Jrpm controller: it drives the five-step pipeline of
// the paper's Figure 1 over a bytecode program.
//
//  1. Identify prospective thread decompositions (cfg) and compile natively
//     with annotation instructions (jit, ModeAnnotated).
//  2. Run the annotated program sequentially, collecting TEST profile
//     statistics (hydra with the tracer attached).
//  3. Post-process the statistics and choose the decompositions with the
//     best predicted speedups (analyzer).
//  4. Recompile the selected loops into speculative threads
//     (jit, ModeTLS).
//  5. Run the native TLS code (hydra, all CPUs).
//
// A plain sequential run provides the normalization baseline, and every
// run's program output is compared for equality — thread speculation must
// preserve sequential semantics exactly.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"

	"jrpm/internal/analyzer"
	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/faultinject"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/mem"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
	"jrpm/internal/vm"
)

// ErrOracleMismatch reports that the speculative run's architectural state
// (program output or final static fields) diverged from the clean sequential
// run while fault injection was active — the safety net failed to preserve
// sequential semantics under the injected adversity.
var ErrOracleMismatch = errors.New("core: speculative state diverged from sequential oracle")

// Options configures a pipeline run.
type Options struct {
	NCPU      int
	Handlers  tls.HandlerCosts
	VM        vm.Config
	Analyzer  *analyzer.Config // nil = defaults matched to NCPU/Handlers
	TLS       *tls.Config      // buffer-capacity ablations
	Cache     *mem.CacheConfig
	Tracer    *tracer.Config // comparator-bank ablations
	MaxCycles int64

	// AdaptiveReprofile implements the reselection the paper sketches in
	// §6.2: when a selected STL consistently experiences unexpected buffer
	// overflows during speculative execution, the decomposition is redone
	// with that loop excluded and the program recompiled; the faster of the
	// two runs wins.
	AdaptiveReprofile bool

	// NoInline disables microJIT method inlining (a §4.1 optimization,
	// applied before loop analysis so helper loops join their caller's
	// nest). Inlining is on by default.
	NoInline bool

	// Faults attaches a deterministic fault plan to the speculative phases
	// (TLS recompilation and run). The baseline and profiling runs always
	// execute clean, so the sequential result remains a trustworthy oracle
	// reference; when the plan can fire, the speculative run's output and
	// final static state are cross-checked against it (ErrOracleMismatch).
	// A nil or zero plan injects nothing and leaves timing untouched.
	Faults *faultinject.Plan

	// Guard enables the runtime STL violation-storm guard on the
	// speculative run: a thrashing loop is decertified after K bad windows
	// and falls back to sequential execution with exponential re-probing.
	Guard *tls.GuardConfig

	// StormLimit caps violations between two commits in the speculative run
	// before it fails with tls.ErrSpecViolationStorm (0 = simulator
	// default).
	StormLimit int64

	// Recorder attaches the speculation flight recorder to the TLS phase
	// (the baseline and profiling runs stay uninstrumented, mirroring how
	// Faults/Guard attach). nil disables recording at zero cost.
	Recorder obs.Recorder

	// Diagnose attaches the speculation doctor's cycle-conservation ledger
	// to every phase: each Phase then carries a LedgerSnapshot attributing
	// all simulated cycles to per-loop and machine buckets, with the
	// conservation invariant (Σ buckets == wall cycles × CPUs) enforced as a
	// hard error. Cycle counts are bit-identical with or without it.
	Diagnose bool

	// Tier2Off disables the tier-2 block engine on every phase, forcing
	// pure switch-dispatch interpretation (the `-tier=off` ablation). The
	// zero value — tier on — is right for everything else: results are
	// bit-identical either way, only host-time changes.
	Tier2Off bool

	// Ctx, when non-nil, bounds every run of the pipeline in wall-clock
	// terms: each simulated phase polls cancellation on a coarse cycle
	// stride (hydra.CancelCheckStride) and the pipeline aborts between
	// phases. Cancellation surfaces as an error wrapping
	// hydra.ErrCancelled and the context's cause; cycle counts of
	// uncancelled runs are bit-identical to runs with no context.
	Ctx context.Context

	// Checkpoint, when non-nil, lets other goroutines request safepoint
	// snapshots of the snapshotable phases (see CheckpointController).
	// Runtime-only: it does not participate in the wire encoding of
	// options, exactly like Ctx and Recorder. Zero cost when nil.
	Checkpoint *CheckpointController
}

// DefaultOptions is the paper's configuration: 4 CPUs, new handlers, both
// VM modifications enabled.
func DefaultOptions() Options {
	o := Options{
		NCPU:      4,
		Handlers:  tls.NewHandlers,
		VM:        vm.DefaultConfig(),
		MaxCycles: 2_000_000_000,
	}
	// JRPM_TIER=off forces pure interpretation for every default-options
	// caller. CI uses it to re-run the golden/litmus/oracle conformance
	// suites with the tier-2 block engine ablated, proving the engine is
	// invisible to simulated behaviour without threading a flag through
	// each test.
	if os.Getenv("JRPM_TIER") == "off" {
		o.Tier2Off = true
	}
	return o
}

// ParseTierFlag maps a -tier flag value to Options.Tier2Off. The natural
// spellings are "on" and "off" (bool flags would reject "off"); the usual
// boolean spellings are accepted too so scripts can pass true/false.
func ParseTierFlag(v string) (off bool, err error) {
	switch v {
	case "on", "true", "1":
		return false, nil
	case "off", "false", "0":
		return true, nil
	}
	return false, fmt.Errorf("invalid -tier value %q (want on or off)", v)
}

// Phase captures one execution of the program.
type Phase struct {
	Cycles        int64
	GCCycles      int64
	GCRuns        int64
	Instructions  int64
	Output        []int64
	Stats         tls.StateStats
	Commits       int64
	Violations    int64
	Overflows     int64
	AvgStoreBuf   float64
	AvgLoadBuf    float64
	OverflowBySTL map[int64]int64

	// Cache-hierarchy counters for the phase's machine.
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64

	// Tier counts tier-2 block-engine activity (all zero when the engine
	// was disabled for the phase).
	Tier hydra.TierStats

	// Statics snapshots the final static field words — part of the
	// architectural state the fault-injection oracle compares.
	Statics []int64
	// FaultsFired counts injected faults by channel during this phase.
	FaultsFired map[string]int64
	// GuardStats is the per-loop guard state after this phase (nil when the
	// guard is disabled).
	GuardStats map[int64]tls.GuardLoopStats
	// DecertifiedLoops lists loops still decertified at the end of the run.
	DecertifiedLoops []int64

	// Ledger is the doctor's cycle-conservation snapshot for this phase
	// (nil unless Options.Diagnose was set). Symbols are already resolved
	// against the phase's image.
	Ledger *obs.LedgerSnapshot
}

// Result is the full pipeline outcome for one program.
type Result struct {
	Name string

	Seq     Phase // plain sequential baseline
	Profile Phase // annotated run with TEST
	TLS     Phase // speculative run

	CompileCycles   int64 // initial (annotated) compilation
	RecompileCycles int64 // TLS recompilation of selected loops

	Analysis        *analyzer.Result
	PredictedCycles int64 // predicted TLS time, normalized to baseline cycles

	OutputsMatch bool
	Loops        map[int64]*tracer.LoopStats

	// Adapted reports that the §6.2 overflow-feedback path fired: the
	// decompositions were reselected and the program recompiled once more.
	Adapted       bool
	ExcludedLoops []int64

	// JITFallback reports that the TLS recompilation failed (an injected or
	// genuine lowering fault) and the speculative phase ran the plain
	// sequential image instead.
	JITFallback bool
	// OracleChecked reports that fault injection was active and the
	// speculative architectural state was verified against the sequential
	// run.
	OracleChecked bool
}

// SpeedupActual is baseline time over speculative time (Figure 8 "Actual").
func (r *Result) SpeedupActual() float64 {
	if r.TLS.Cycles == 0 {
		return 0
	}
	return float64(r.Seq.Cycles) / float64(r.TLS.Cycles)
}

// SpeedupPredicted is baseline over TEST-predicted time (Figure 8
// "Predicted").
func (r *Result) SpeedupPredicted() float64 {
	if r.PredictedCycles == 0 {
		return 0
	}
	return float64(r.Seq.Cycles) / float64(r.PredictedCycles)
}

// ProfileSlowdown is the relative profiling overhead (Figure 8
// "Profiling"): annotated time over baseline time, minus one.
func (r *Result) ProfileSlowdown() float64 {
	if r.Seq.Cycles == 0 {
		return 0
	}
	return float64(r.Profile.Cycles)/float64(r.Seq.Cycles) - 1
}

// TotalSpeedup is the Figure 9 metric: baseline time over the sum of
// speculative execution plus compilation, profiling and recompilation
// overheads (garbage collection is inside the phase cycle counts).
func (r *Result) TotalSpeedup() float64 {
	total := r.TLS.Cycles + r.CompileCycles + r.RecompileCycles + r.ProfilingOverheadCycles()
	if total == 0 {
		return 0
	}
	return float64(r.Seq.Cycles) / float64(total)
}

// ProfilingOverheadCycles is the extra time the annotated run cost over the
// baseline (the profile run performs the program's real work once).
func (r *Result) ProfilingOverheadCycles() int64 {
	d := r.Profile.Cycles - r.Seq.Cycles
	if d < 0 {
		return 0
	}
	return d
}

// SerialFraction is the share of speculative-run machine time spent outside
// STLs (Table 3 column i).
func (r *Result) SerialFraction() float64 {
	if r.TLS.Cycles == 0 {
		return 0
	}
	return float64(r.TLS.Stats.Serial) / float64(r.TLS.Cycles)
}

// stage names how far down the pipeline a run goes. The stages are the
// rungs of the service's graceful-degradation ladder: full speculation,
// profiling without speculation, and the plain sequential VM.
type stage int

const (
	stageSeq     stage = iota // plain sequential baseline only
	stageProfile              // baseline + annotated profiling + analysis
	stageTLS                  // the full five-step pipeline
)

// Run drives the full pipeline.
func Run(bp *bytecode.Program, opts Options) (*Result, error) {
	return run(bp, opts, stageTLS, nil)
}

// RunProfile drives the pipeline through profiling and decomposition
// analysis but never recompiles or runs speculative code: the result carries
// the baseline, the profiled run, the analyzer's selection and the predicted
// speedup, with a zero TLS phase. It is the middle rung of the degradation
// ladder — cheaper than Run (no TLS recompile, no speculative machine) yet
// still answering "what would speculation buy".
func RunProfile(bp *bytecode.Program, opts Options) (*Result, error) {
	return run(bp, opts, stageProfile, nil)
}

// RunSequential runs only the plain sequential baseline — the bottom rung of
// the degradation ladder, unconditionally safe: no annotations, no
// speculation, no analyzer.
func RunSequential(bp *bytecode.Program, opts Options) (*Result, error) {
	return run(bp, opts, stageSeq, nil)
}

// ctxErr reports pending cancellation of the pipeline context (nil context =
// never cancelled).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cancelled: %w", context.Cause(ctx))
	}
	return nil
}

func run(bp *bytecode.Program, opts Options, st stage, cp *Checkpoint) (*Result, error) {
	if opts.NCPU == 0 {
		ctx, cc := opts.Ctx, opts.Checkpoint
		opts = DefaultOptions()
		opts.Ctx, opts.Checkpoint = ctx, cc
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res := &Result{Name: bp.Name}
	if !opts.NoInline {
		bp = jit.Inline(bp)
	}
	info := cfg.AnalyzeProgram(bp)

	// Baseline sequential run (plain code, no annotations). The baseline and
	// the profiling leg below are independent machines over independent
	// images, so the baseline runs on its own goroutine while the annotated
	// compile and profiled run proceed; the legs join before the analyzer,
	// which needs both cycle counts.
	plainImg, _, err := jit.Compile(bp, info, jit.ModePlain, nil)
	if err != nil {
		return nil, fmt.Errorf("core: plain compile: %w", err)
	}
	// The baseline leg either runs fresh or — when resuming a StageSeq
	// checkpoint — continues from the restored safepoint; both paths yield
	// the identical Phase.
	runSeq := func() (Phase, error) {
		if cp != nil && cp.Stage == StageSeq {
			return executeResume(bp, plainImg, opts, false, cp)
		}
		ph, _, err := execute(bp, plainImg, opts, false, false)
		return ph, err
	}
	if st == stageSeq {
		seq, err := runSeq()
		if err != nil {
			return nil, fmt.Errorf("core: sequential run: %w", err)
		}
		res.Seq = seq
		res.OutputsMatch = true // only one run: trivially consistent
		return res, nil
	}
	type seqOutcome struct {
		ph  Phase
		err error
	}
	seqCh := make(chan seqOutcome, 1)
	go func() {
		ph, err := runSeq()
		seqCh <- seqOutcome{ph, err}
	}()

	// Step 1-2: annotated compile, profiled sequential run.
	annImg, annRep, err := jit.Compile(bp, info, jit.ModeAnnotated, nil)
	if err != nil {
		<-seqCh // never abandon the baseline leg mid-flight
		return nil, fmt.Errorf("core: annotated compile: %w", err)
	}
	res.CompileCycles = annRep.Cycles
	prof, tr, err := execute(bp, annImg, opts, true, false)
	so := <-seqCh // join the baseline leg before touching its results
	if so.err != nil {
		return nil, fmt.Errorf("core: sequential run: %w", so.err)
	}
	seq := so.ph
	res.Seq = seq
	if err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	res.Profile = prof
	res.Loops = tr.Loops()

	// Step 3: choose decompositions.
	acfg := analyzer.DefaultConfig()
	if opts.Analyzer != nil {
		acfg = *opts.Analyzer
	} else {
		acfg.NCPU = opts.NCPU
		acfg.Handlers = opts.Handlers
		acfg.ParallelAlloc = opts.VM.ParallelAlloc
		acfg.ElideLocks = opts.VM.ElideLocks
	}
	res.Analysis = analyzer.Select(info, tr.Loops(), prof.Cycles, acfg)
	// The prediction is in profiled-run cycles; normalize to baseline.
	if prof.Cycles > 0 {
		res.PredictedCycles = res.Analysis.PredictedCycles * seq.Cycles / prof.Cycles
	}
	if st == stageProfile {
		res.OutputsMatch = equalOutputs(res.Seq.Output, res.Profile.Output)
		return res, nil
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Step 4-5: recompile selected loops, run speculative code. The
	// compile-time fault injector draws from the same plan as the run-time
	// one; an injected (or genuine) lowering failure degrades to the plain
	// sequential image instead of aborting the pipeline.
	tlsImg, tlsRep, err := jit.CompileWithFaults(bp, info, jit.ModeTLS,
		res.Analysis.Selection, faultinject.New(faultPlan(opts)))
	if err != nil {
		if !errors.Is(err, jit.ErrLowering) {
			return nil, fmt.Errorf("core: TLS recompile: %w", err)
		}
		tlsImg, tlsRep = plainImg, &jit.Report{}
		res.JITFallback = true
	}
	res.RecompileCycles = tlsRep.Cycles
	var spec Phase
	if cp != nil && cp.Stage == StageTLS {
		spec, err = executeResume(bp, tlsImg, opts, true, cp)
	} else {
		spec, _, err = execute(bp, tlsImg, opts, false, true)
	}
	if err != nil {
		return nil, fmt.Errorf("core: TLS run: %w", err)
	}
	res.TLS = spec

	// Post-commit oracle: with an active fault plan, the speculative run's
	// architectural state — program output plus final static fields — must
	// match the clean sequential run exactly.
	if !faultPlan(opts).Zero() {
		res.OracleChecked = true
		if !equalOutputs(seq.Output, spec.Output) || !equalOutputs(seq.Statics, spec.Statics) {
			return nil, fmt.Errorf("%w: program %s under plan %q (faults fired: %v)",
				ErrOracleMismatch, bp.Name, faultPlan(opts).String(), spec.FaultsFired)
		}
	}

	// §6.2 feedback: a selected STL whose threads keep overflowing the
	// speculative buffers at run time (something the averaged profile can
	// underestimate) triggers reselection without it.
	if opts.AdaptiveReprofile {
		if err := adapt(bp, info, res, acfg, opts); err != nil {
			return nil, err
		}
	}

	res.OutputsMatch = equalOutputs(res.Seq.Output, res.Profile.Output) &&
		equalOutputs(res.Seq.Output, res.TLS.Output)
	return res, nil
}

// adapt reselects decompositions excluding loops with heavy runtime
// overflow, recompiles and reruns; the faster correct run is kept.
func adapt(bp *bytecode.Program, info *cfg.ProgramInfo, res *Result,
	acfg analyzer.Config, opts Options) error {
	// The adapted rerun compiles a different image (loops excluded), so its
	// snapshots could never restore against the primary pipeline's phases;
	// checkpointing covers the primary phases only.
	opts.Checkpoint = nil
	var excluded []int64
	threshold := res.TLS.Commits / 8
	if threshold < 16 {
		threshold = 16
	}
	for loopID, n := range res.TLS.OverflowBySTL {
		if n >= threshold {
			excluded = append(excluded, loopID)
		}
	}
	if len(excluded) == 0 {
		return nil
	}
	// Map iteration order is random; the exclusion list is user-visible
	// (reports, CLI) and must not vary between identical runs.
	sort.Slice(excluded, func(i, j int) bool { return excluded[i] < excluded[j] })
	acfg.ExcludeLoops = map[int64]bool{}
	for _, id := range excluded {
		acfg.ExcludeLoops[id] = true
	}
	analysis := analyzer.Select(info, res.Loops, res.Profile.Cycles, acfg)
	img, rep, err := jit.Compile(bp, info, jit.ModeTLS, analysis.Selection)
	if err != nil {
		return fmt.Errorf("core: adaptive recompile: %w", err)
	}
	spec, _, err := execute(bp, img, opts, false, true)
	if err != nil {
		return fmt.Errorf("core: adaptive TLS run: %w", err)
	}
	res.RecompileCycles += rep.Cycles // the second recompilation is real cost
	if equalOutputs(res.Seq.Output, spec.Output) && spec.Cycles < res.TLS.Cycles {
		res.TLS = spec
		res.Analysis = analysis
		res.Adapted = true
		res.ExcludedLoops = excluded
	}
	return nil
}

func equalOutputs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultPlan returns the effective fault plan (zero when none configured).
func faultPlan(opts Options) faultinject.Plan {
	if opts.Faults == nil {
		return faultinject.Plan{}
	}
	return *opts.Faults
}

// execute runs one image on a fresh machine. Fault injection and the STL
// guard attach only to speculative (spec) phases so the sequential and
// profiling runs stay clean.
func execute(bp *bytecode.Program, img *hydra.Image, opts Options, profile, spec bool) (Phase, *tracer.Tracer, error) {
	rt := vm.New(bp, opts.VM)
	mopts := hydra.Options{
		NCPU:     opts.NCPU,
		Handlers: opts.Handlers,
		TLS:      opts.TLS,
		Cache:    opts.Cache,
		Tracer:   opts.Tracer,
		Profile:  profile,
		Tier2Off: opts.Tier2Off,
		Ctx:      opts.Ctx,
	}
	if spec {
		mopts.Faults = opts.Faults
		mopts.Guard = opts.Guard
		mopts.StormLimit = opts.StormLimit
		mopts.Recorder = opts.Recorder
	}
	var led *obs.Ledger
	if opts.Diagnose {
		n := mopts.NCPU
		if n == 0 {
			n = 4 // hydra's own default
		}
		led = obs.NewLedger(n)
		mopts.Ledger = led
	}
	if cc := opts.Checkpoint; cc != nil && checkpointable(opts, profile, spec) {
		ckpt := &hydra.Checkpointer{Sink: checkpointSink(cc, rt, bp.Name, phaseStage(spec)), Stride: cc.Stride}
		mopts.Checkpoint = ckpt
		cc.attach(ckpt)
		defer cc.detach(ckpt)
	}
	m := hydra.NewMachine(img, rt, mopts)
	m.Boot()
	rt.Install(m)
	maxC := opts.MaxCycles
	if maxC == 0 {
		maxC = 2_000_000_000
	}
	err := m.Run(maxC)
	ph := extractPhase(m, img)
	if led != nil {
		led.Close(m.Clock)
		snap := led.Snapshot()
		// Symbolize while the image is alive; the snapshot must outlive it.
		hydra.AnnotateLedger(img, snap)
		ph.Ledger = snap
		// Conservation is a hard invariant of the ledger implementation. Only
		// enforce it on runs that finished cleanly: a cancelled or
		// budget-stopped run legitimately carries in-flight cycles, which the
		// invariant already accounts for, but its primary error must win.
		if cerr := snap.CheckConservation(); cerr != nil && err == nil {
			err = cerr
		}
	}
	// Everything the caller needs is extracted; return the machine's
	// hardware to the free list. The returned tracer's loop statistics
	// remain valid after release.
	tr := m.Tracer
	m.Release()
	return ph, tr, err
}

// extractPhase reads one finished machine into a Phase (everything except
// the ledger snapshot, which only execute's diagnose path attaches).
func extractPhase(m *hydra.Machine, img *hydra.Image) Phase {
	ph := Phase{
		Cycles:        m.Clock,
		GCCycles:      m.GCCycles,
		GCRuns:        m.GCRuns,
		Instructions:  m.Instructions,
		Output:        m.Output,
		Stats:         m.TLS.Stats,
		Commits:       m.TLS.Commits,
		Violations:    m.TLS.Violations,
		Overflows:     m.TLS.Overflows,
		OverflowBySTL: m.OverflowBySTL,
		Tier:          m.Tier,
	}
	ph.AvgStoreBuf, ph.AvgLoadBuf = m.TLS.AvgBufferLines()
	ph.L1Hits, ph.L1Misses = m.Caches.L1Hits, m.Caches.L1Misses
	ph.L2Hits, ph.L2Misses = m.Caches.L2Hits, m.Caches.L2Misses
	for i := 0; i < img.Statics; i++ {
		ph.Statics = append(ph.Statics, m.RawRead(hydra.GlobalBase+mem.Addr(i)))
	}
	ph.FaultsFired = m.Injector().Fired()
	if m.Guard != nil {
		ph.GuardStats = m.Guard.Stats()
		ph.DecertifiedLoops = m.Guard.DecertifiedLoops()
	}
	return ph
}
