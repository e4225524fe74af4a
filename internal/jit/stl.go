package jit

import (
	"fmt"
	"math"
	"sort"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/isa"
)

// reductionISAOp maps a bytecode accumulation operator to the native op used
// for local accumulation and the final merge.
func reductionISAOp(op bytecode.Op) isa.Op {
	switch op {
	case bytecode.IADD:
		return isa.ADD
	case bytecode.IMUL:
		return isa.MUL
	case bytecode.IMIN:
		return isa.MIN
	case bytecode.IMAX:
		return isa.MAX
	case bytecode.FADD:
		return isa.FADD
	case bytecode.FMUL:
		return isa.FMUL
	case bytecode.FMIN:
		return isa.FMIN
	case bytecode.FMAX:
		return isa.FMAX
	}
	panic(fmt.Sprintf("jit: not a reduction op: %s", op.Name()))
}

// reductionIdentity returns the identity element for a reduction operator.
func reductionIdentity(op bytecode.Op) int64 {
	switch op {
	case bytecode.IADD:
		return 0
	case bytecode.IMUL:
		return 1
	case bytecode.IMIN:
		return math.MaxInt64
	case bytecode.IMAX:
		return math.MinInt64
	case bytecode.FADD:
		return int64(math.Float64bits(0))
	case bytecode.FMUL:
		return int64(math.Float64bits(1))
	case bytecode.FMIN:
		return int64(math.Float64bits(math.Inf(1)))
	case bytecode.FMAX:
		return int64(math.Float64bits(math.Inf(-1)))
	}
	panic("jit: no identity")
}

// sortedKeys returns map keys in ascending order for deterministic codegen.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// locateInductorSites records the reset sites of resetable inductors. The
// body's own increment executes unchanged (it is a pure register operation
// on a register-allocated local); STL_INIT computes the start-of-iteration
// value from the hardware iteration register, and STL_EOI advances the
// register by the remaining (NCPU-1)×step so the CPU's next round-robin
// iteration starts correctly. A store to a resetable slot that is not part
// of the increment pattern is a reset site and triggers the forced
// communication of §4.2.3.
func (lw *lowerer) locateInductorSites(ctx *stlCtx) {
	code := lw.m.Code
	l := ctx.loop
	ctx.resetStore = map[int]int{}
	for _, s := range sortedKeys(ctx.resetAt) {
		step := ctx.indStep[s]
		for b := range l.Blocks {
			blk := lw.g.Blocks[b]
			for pc := blk.Start; pc < blk.End; pc++ {
				in := code[pc]
				if st, ok := cfg.IncrementStep(code, pc, s); ok && st == step {
					continue // the inductor increment, not a reset
				}
				if (in.Op == bytecode.STORE || in.Op == bytecode.IINC) && int(in.A) == s {
					ctx.resetStore[pc] = s
				}
			}
		}
	}
}

// incDominates reports whether slot s's inductor increment in ctx's loop
// has already executed whenever control reaches pc in the current
// iteration. The classification pass guarantees exactly one
// increment-shaped store of the right step on the every-iteration path
// (dominating all back edges, not inside a nested loop); the increment has
// run iff its block dominates pc's block, and, when the two share a block,
// iff it comes first.
func (lw *lowerer) incDominates(ctx *stlCtx, s int, pc int) bool {
	code := lw.m.Code
	l := ctx.loop
	step := ctx.indStep[s]
	at := lw.g.BlockAt(pc)
	for b := range l.Blocks {
		if inner := lw.g.InnermostLoopOf(b); inner != l {
			continue
		}
		blk := lw.g.Blocks[b]
		for inc := blk.Start; inc < blk.End; inc++ {
			st, ok := cfg.IncrementStep(code, inc, s)
			if !ok || st != step {
				continue
			}
			dominating := true
			for _, e := range l.Ends {
				if !lw.g.Dominates(b, e) {
					dominating = false
					break
				}
			}
			if dominating {
				if b == at {
					return inc < pc
				}
				return lw.g.Dominates(b, at)
			}
		}
	}
	return false
}

// enclosingSTL finds the selected-loop context of the nearest ancestor of l.
func (lw *lowerer) enclosingSTL(l *cfg.Loop) *stlCtx {
	for p := l.Parent; p != -1; p = lw.g.Loops[p].Parent {
		if ctx := lw.stls[p]; ctx != nil {
			return ctx
		}
	}
	return nil
}

// emitLoopEntry emits whatever must precede a loop header in linear code:
// the sloop annotation in annotated mode, or the full STL prologue —
// Figure 4's master startup sequence plus Figure 5's STL_INIT — when the
// loop was selected for speculation.
func (lw *lowerer) emitLoopEntry(l *cfg.Loop) {
	switch {
	case lw.mode == ModeAnnotated:
		lw.b.Label(lw.lbl("pre", l.Index))
		lw.b.Emit(isa.Instr{Op: isa.SLOOP, Imm: lw.loopID(l), Imm2: int64(len(l.Written))})
	case lw.mode == ModeTLS && lw.stls[l.Index] != nil:
		lw.emitSTLPrologue(lw.stls[l.Index])
	}
}

// emitSTLPrologue emits the master-side setup, STLSTART, the restart target
// (STL_INIT) and the per-iteration top label for one selected loop.
func (lw *lowerer) emitSTLPrologue(ctx *stlCtx) {
	b := lw.b
	i := ctx.loop.Index
	b.Label(lw.lbl("pre", i))

	// Save every register-allocated local to its home slot: slaves and
	// restart handlers reload from here (software shadow register file,
	// §4.2.1).
	for slot := 0; slot < lw.m.NLocals; slot++ {
		if r := lw.place.reg[slot]; r != noReg {
			b.Sw(r, isa.FP, int64(slot))
		}
	}
	// Initialize reduction partials to the operator identity, one slot per
	// CPU (§4.2.5).
	for _, s := range sortedKeys(ctx.redBase) {
		op := ctx.plan.Reductions[s]
		b.Li(isa.AT, reductionIdentity(op))
		for k := 0; k < lw.ncpu; k++ {
			b.Sw(isa.AT, isa.FP, ctx.redBase[s]+int64(k))
		}
	}
	// Clear synchronizing locks (iteration 0 owns them, Figure 6).
	for _, s := range sortedKeys(ctx.lockOf) {
		b.Sw(isa.Zero, isa.FP, ctx.lockOf[s])
	}
	// Resetable inductor base iterations start at zero (§4.2.3).
	for _, s := range sortedKeys(ctx.resetAt) {
		b.Sw(isa.Zero, isa.FP, ctx.resetAt[s])
	}
	startOp := isa.STLSTART
	if ctx.plan.Inner {
		startOp = isa.STLSWSTART
		// Re-base the enclosing STL's inductors: the blanket save above
		// overwrote their homes with this (partial) outer iteration's
		// values, so record a new (home, base) pair. The outer plan's
		// inductors were reclassified base-relative ("resetable") by the
		// analyzer for exactly this reason. The base must name the
		// iteration whose *start-of-iteration* value the home slot now
		// holds: if the inductor's increment has already executed on the
		// path to this inner loop, the saved value belongs to the start of
		// the NEXT iteration, so the base is the current iteration + 1
		// (the same convention emitResetComm uses after a mid-iteration
		// write).
		if outer := lw.enclosingSTL(ctx.loop); outer != nil {
			if len(outer.resetAt) > 0 {
				b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T0, Imm: isa.CP2Iteration})
				b.OpImm(isa.ADDI, isa.AT, isa.T0, 1)
				for _, s := range sortedKeys(outer.resetAt) {
					base := isa.T0
					if lw.incDominates(outer, s, lw.g.Blocks[ctx.loop.Header].Start) {
						base = isa.AT
					}
					b.Sw(base, isa.FP, outer.resetAt[s])
				}
			}
		}
	}
	b.Emit(isa.Instr{Op: startOp, Imm: ctx.stlID})

	// STL_INIT: every CPU (re)establishes its register state here; this is
	// also the violation restart target.
	b.Label(lw.lbl("init", i))
	for slot := 0; slot < lw.m.NLocals; slot++ {
		r := lw.place.reg[slot]
		if r == noReg {
			continue
		}
		if _, resetable := ctx.resetAt[slot]; resetable {
			// Resetable inductors recompute at the top of every iteration
			// (below): the per-iteration reads of the base value are what
			// let a reset by an older thread violate this one (§4.2.3).
			continue
		}
		if step, ok := ctx.indStep[slot]; ok {
			// inductor = home + iteration * step, computed from the
			// hardware iteration register (Figure 5).
			b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T0, Imm: isa.CP2Iteration})
			if step != 1 {
				b.Li(isa.AT, step)
				b.Op3(isa.MUL, isa.T0, isa.T0, isa.AT)
			}
			b.Lw(r, isa.FP, int64(slot))
			b.Op3(isa.ADD, r, r, isa.T0)
			continue
		}
		if base, ok := ctx.redBase[slot]; ok {
			// Reload this CPU's partial accumulator.
			b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T0, Imm: isa.CP2CPUID})
			b.Op3(isa.ADD, isa.T0, isa.T0, isa.FP)
			b.Lw(r, isa.T0, base)
			continue
		}
		if ctx.commSet[slot] {
			continue // communicated locals load at the top of every iteration
		}
		b.Lw(r, isa.FP, int64(slot)) // invariants and other locals
	}
	// Per-iteration top: reload communicated locals (Figure 5 base shape)
	// and recompute resetable inductors from (home, baseIter) — the reads
	// are exposed every iteration, so a reset communicates by violation.
	b.Label(lw.lbl("top", i))
	for _, s := range ctx.plan.Comm {
		if r := lw.place.reg[s]; r != noReg {
			b.Lw(r, isa.FP, int64(s))
		}
	}
	for _, s := range sortedKeys(ctx.resetAt) {
		r := lw.place.reg[s]
		step := ctx.indStep[s]
		b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T0, Imm: isa.CP2Iteration})
		b.Lw(isa.AT, isa.FP, ctx.resetAt[s])
		b.Op3(isa.SUB, isa.T0, isa.T0, isa.AT)
		if step != 1 {
			b.Li(isa.AT, step)
			b.Op3(isa.MUL, isa.T0, isa.T0, isa.AT)
		}
		b.Lw(r, isa.FP, int64(s))
		b.Op3(isa.ADD, r, r, isa.T0)
	}
	lw.registerSTLStubs(ctx)
}

// registerSTLStubs defers emission of the end-of-iteration and exit stubs.
func (lw *lowerer) registerSTLStubs(ctx *stlCtx) {
	i := ctx.loop.Index
	lw.stubs = append(lw.stubs, func() {
		b := lw.b
		// STL_EOI: communicate carried locals, bank reduction partials,
		// commit, advance inductors by step×NCPU, next iteration.
		b.Label(lw.lbl("eoi", i))
		for _, s := range ctx.plan.Comm {
			if r := lw.place.reg[s]; r != noReg {
				b.Sw(r, isa.FP, int64(s))
			}
		}
		for _, s := range sortedKeys(ctx.redBase) {
			r := lw.place.reg[s]
			b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T0, Imm: isa.CP2CPUID})
			b.Op3(isa.ADD, isa.T0, isa.T0, isa.FP)
			b.Sw(r, isa.T0, ctx.redBase[s])
		}
		b.Emit(isa.Instr{Op: isa.STLEOI})
		// The body's own increment already advanced the inductor by one
		// step; add the remaining (NCPU-1) steps to reach this CPU's next
		// round-robin iteration (Figure 5: "2×(4 CPUs) = 8"). Resetable
		// inductors skip this: they recompute at the loop top.
		for _, s := range sortedKeys(ctx.indStep) {
			if _, resetable := ctx.resetAt[s]; resetable {
				continue
			}
			if r := lw.place.reg[s]; r != noReg && lw.ncpu > 1 {
				b.OpImm(isa.ADDI, r, r, ctx.indStep[s]*int64(lw.ncpu-1))
			}
		}
		b.Jmp(lw.lbl("top", i))

		// STL_SHUTDOWN: the exiting thread becomes the master; reductions
		// merge the per-CPU partials into the architectural value.
		b.Label(lw.lbl("exit", i))
		endOp := isa.STLSHUTDOWN
		if ctx.plan.Inner {
			endOp = isa.STLSWEND
		}
		b.Emit(isa.Instr{Op: endOp})
		for _, s := range sortedKeys(ctx.redBase) {
			op := reductionISAOp(ctx.plan.Reductions[s])
			b.Lw(isa.T0, isa.FP, int64(s))
			for k := 0; k < lw.ncpu; k++ {
				b.Lw(isa.AT, isa.FP, ctx.redBase[s]+int64(k))
				b.Op3(op, isa.T0, isa.T0, isa.AT)
			}
			if r := lw.place.reg[s]; r != noReg {
				b.Move(r, isa.T0)
			}
			b.Sw(isa.T0, isa.FP, int64(s))
		}
		b.Jmp(fmt.Sprintf("bc_%d", ctx.exitTgt))
	})
}

// emitWait spins on the synchronizing lock until it equals the current
// iteration number (Figure 6, using lwnv so the spin cannot violate).
func (lw *lowerer) emitWait(ctx *stlCtx, slot int) {
	b := lw.b
	t := lw.freshTemp()
	u := lw.freshTemp()
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: t, Imm: isa.CP2Iteration})
	lw.stubSeq++
	lbl := fmt.Sprintf("wait_%d_%d", slot, lw.stubSeq)
	b.Label(lbl)
	b.Emit(isa.Instr{Op: isa.LWNV, Rd: u, Rs: isa.FP, Imm: ctx.lockOf[slot]})
	b.Br(isa.BNE, u, t, lbl)
	lw.freeTemp(t)
	lw.freeTemp(u)
}

// emitSignal writes the next iteration number to the lock, releasing the
// successor thread.
func (lw *lowerer) emitSignal(ctx *stlCtx, slot int) {
	b := lw.b
	t := lw.freshTemp()
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: t, Imm: isa.CP2Iteration})
	b.OpImm(isa.ADDI, t, t, 1)
	b.Sw(t, isa.FP, ctx.lockOf[slot])
	lw.freeTemp(t)
}

// emitResetComm implements the forced communication of a resetable inductor
// reset at bytecode pc (§4.2.3): the new value is written to the home slot
// and becomes the start-of-iteration value of a new base iteration,
// violating and restarting every later speculative thread so they
// recompute from the updated base. If the increment has already run in
// this iteration, the value is where the next iteration starts, so the
// base is the iteration + 1; otherwise the increment is still to come, and
// the value stands for the start of this iteration.
func (lw *lowerer) emitResetComm(ctx *stlCtx, slot int, pc int) {
	b := lw.b
	r := lw.place.reg[slot]
	b.Sw(r, isa.FP, int64(slot))
	t := lw.freshTemp()
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: t, Imm: isa.CP2Iteration})
	if lw.incDominates(ctx, slot, pc) {
		b.OpImm(isa.ADDI, t, t, 1)
	}
	b.Sw(t, isa.FP, ctx.resetAt[slot])
	lw.freeTemp(t)
}
