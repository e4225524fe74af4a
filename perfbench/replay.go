package main

import (
	"errors"
	"fmt"
	"hash/fnv"

	"jrpm/internal/analyzer"
	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/core"
	"jrpm/internal/faultinject"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
	"jrpm/internal/vm"
)

// phaseRow is the simulated outcome of one phase. It is comparable with ==,
// so a replayed phase can be checked against core.Run's bit for bit.
type phaseRow struct {
	Cycles, GCCycles, GCRuns, Instructions int64
	Commits, Violations, Overflows         int64
	Stats                                  tls.StateStats
	L1Hits, L1Misses, L2Hits, L2Misses     int64
	Tier                                   hydra.TierStats
	Output, Statics                        uint64 // FNV-1a digests
}

// simRow is the simulated outcome of one pipeline run.
type simRow struct {
	Seq, Profile, TLS              phaseRow
	CompileCycles, RecompileCycles int64
	PredictedCycles                int64
	Selected                       int // loops chosen as speculative threads
	OutputsMatch, JITFallback      bool
}

func digest(xs []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func rowOfPhase(p *core.Phase) phaseRow {
	return phaseRow{
		Cycles: p.Cycles, GCCycles: p.GCCycles, GCRuns: p.GCRuns, Instructions: p.Instructions,
		Commits: p.Commits, Violations: p.Violations, Overflows: p.Overflows, Stats: p.Stats,
		L1Hits: p.L1Hits, L1Misses: p.L1Misses, L2Hits: p.L2Hits, L2Misses: p.L2Misses,
		Tier: p.Tier, Output: digest(p.Output), Statics: digest(p.Statics),
	}
}

func rowOf(res *core.Result) simRow {
	r := simRow{
		Seq: rowOfPhase(&res.Seq), Profile: rowOfPhase(&res.Profile), TLS: rowOfPhase(&res.TLS),
		CompileCycles: res.CompileCycles, RecompileCycles: res.RecompileCycles,
		PredictedCycles: res.PredictedCycles,
		OutputsMatch:    res.OutputsMatch, JITFallback: res.JITFallback,
	}
	r.Selected = selectedLoops(res.Analysis)
	return r
}

// selectedLoops counts the loops the analyzer chose as speculative threads.
// It reads the decision records, which travel in the wire result, rather
// than the selection plans, which do not.
func selectedLoops(a *analyzer.Result) int {
	n := 0
	if a != nil {
		for _, d := range a.Decisions {
			if d.Selected {
				n++
			}
		}
	}
	return n
}

// replayed is what a traced replay yields.
type replayed struct {
	row   simRow
	loops int // natural loops cfg found
}

// replay runs bp through the stages of core.Run with the same public calls,
// in the same order and with the sequential leg on a goroutine of its own,
// and records a span around each stage under parent. It supports the
// options core.DefaultOptions sets (no fault plan, checkpoint or adaptive
// reprofiling), which is what table3 and progen-small run.
func replay(rec *recorder, job int64, parent int, bp *bytecode.Program, opts core.Options) (replayed, error) {
	var out replayed
	res := &out.row
	if !opts.NoInline {
		rec.stage(job, parent, "jit.inline", func() { bp = jit.Inline(bp) })
	}
	var info *cfg.ProgramInfo
	rec.stage(job, parent, "cfg.analyze", func() { info = cfg.AnalyzeProgram(bp) })
	for _, g := range info.Graphs {
		out.loops += len(g.Loops)
	}

	var plainImg *hydra.Image
	var err error
	rec.stage(job, parent, "jit.compile_plain", func() { plainImg, _, err = jit.Compile(bp, info, jit.ModePlain, nil) })
	if err != nil {
		return out, fmt.Errorf("plain compile: %w", err)
	}
	type seqOutcome struct {
		ph  phase
		err error
	}
	seqCh := make(chan seqOutcome, 1)
	go func() {
		ph, _, err := execute(rec, job, parent, "seq", bp, plainImg, opts, false, false)
		seqCh <- seqOutcome{ph, err}
	}()

	var annImg *hydra.Image
	var annRep *jit.Report
	rec.stage(job, parent, "jit.compile_annotated", func() {
		annImg, annRep, err = jit.Compile(bp, info, jit.ModeAnnotated, nil)
	})
	if err != nil {
		<-seqCh
		return out, fmt.Errorf("annotated compile: %w", err)
	}
	res.CompileCycles = annRep.Cycles
	prof, tr, perr := execute(rec, job, parent, "profile", bp, annImg, opts, true, false)
	so := <-seqCh
	if so.err != nil {
		return out, fmt.Errorf("sequential run: %w", so.err)
	}
	if perr != nil {
		return out, fmt.Errorf("profiling run: %w", perr)
	}
	res.Seq, res.Profile = so.ph.row, prof.row

	acfg := analyzer.DefaultConfig()
	if opts.Analyzer != nil {
		acfg = *opts.Analyzer
	} else {
		acfg.NCPU = opts.NCPU
		acfg.Handlers = opts.Handlers
		acfg.ParallelAlloc = opts.VM.ParallelAlloc
		acfg.ElideLocks = opts.VM.ElideLocks
	}
	var analysis *analyzer.Result
	rec.stage(job, parent, "analyzer.select", func() {
		analysis = analyzer.Select(info, tr.Loops(), prof.row.Cycles, acfg)
	})
	if prof.row.Cycles > 0 {
		res.PredictedCycles = analysis.PredictedCycles * so.ph.row.Cycles / prof.row.Cycles
	}
	res.Selected = selectedLoops(analysis)

	var tlsImg *hydra.Image
	var tlsRep *jit.Report
	plan := faultinject.Plan{}
	if opts.Faults != nil {
		plan = *opts.Faults
	}
	rec.stage(job, parent, "jit.compile_tls", func() {
		tlsImg, tlsRep, err = jit.CompileWithFaults(bp, info, jit.ModeTLS, analysis.Selection, faultinject.New(plan))
	})
	if err != nil {
		if !errors.Is(err, jit.ErrLowering) {
			return out, fmt.Errorf("TLS recompile: %w", err)
		}
		tlsImg, tlsRep = plainImg, &jit.Report{}
		res.JITFallback = true
	}
	res.RecompileCycles = tlsRep.Cycles
	spec, _, err := execute(rec, job, parent, "tls", bp, tlsImg, opts, false, true)
	if err != nil {
		return out, fmt.Errorf("TLS run: %w", err)
	}
	res.TLS = spec.row
	res.OutputsMatch = equal(so.ph.output, prof.output) && equal(so.ph.output, spec.output)
	return out, nil
}

// phase is one replayed machine run.
type phase struct {
	row    phaseRow
	output []int64
}

// execute mirrors core's execute: set up a fresh machine, run it, read the
// outcome and release the machine, each stage in its own span.
func execute(rec *recorder, job int64, parent int, name string, bp *bytecode.Program, img *hydra.Image,
	opts core.Options, profile, spec bool) (phase, *tracer.Tracer, error) {
	var m *hydra.Machine
	rec.stage(job, parent, "hydra.setup_"+name, func() {
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
		m = hydra.NewMachine(img, rt, mopts)
		m.Boot()
		rt.Install(m)
	})
	maxC := opts.MaxCycles
	if maxC == 0 {
		maxC = 2_000_000_000
	}
	var err error
	rec.stage(job, parent, "hydra.run_"+name, func() { err = m.Run(maxC) })
	statics := make([]int64, img.Statics)
	for i := range statics {
		statics[i] = m.RawRead(hydra.GlobalBase + mem.Addr(i))
	}
	ph := phase{output: m.Output, row: phaseRow{
		Cycles: m.Clock, GCCycles: m.GCCycles, GCRuns: m.GCRuns, Instructions: m.Instructions,
		Commits: m.TLS.Commits, Violations: m.TLS.Violations, Overflows: m.TLS.Overflows,
		Stats:  m.TLS.Stats,
		L1Hits: m.Caches.L1Hits, L1Misses: m.Caches.L1Misses,
		L2Hits: m.Caches.L2Hits, L2Misses: m.Caches.L2Misses,
		Tier: m.Tier, Output: digest(m.Output), Statics: digest(statics),
	}}
	tr := m.Tracer
	rec.stage(job, parent, "hydra.release", m.Release)
	return ph, tr, err
}

func equal(a, b []int64) bool {
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
