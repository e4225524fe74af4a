package jit

import (
	"fmt"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/isa"
)

// intOpMap maps pure two-operand integer bytecodes to native ops.
var intOpMap = map[bytecode.Op]isa.Op{
	bytecode.IADD: isa.ADD, bytecode.ISUB: isa.SUB, bytecode.IMUL: isa.MUL,
	bytecode.IDIV: isa.DIV, bytecode.IREM: isa.REM,
	bytecode.IAND: isa.AND, bytecode.IOR: isa.OR, bytecode.IXOR: isa.XOR,
	bytecode.ISHL: isa.SLL, bytecode.ISHR: isa.SRA, bytecode.IUSHR: isa.SRL,
	bytecode.IMIN: isa.MIN, bytecode.IMAX: isa.MAX,
	bytecode.FADD: isa.FADD, bytecode.FSUB: isa.FSUB,
	bytecode.FMUL: isa.FMUL, bytecode.FDIV: isa.FDIV,
	bytecode.FMIN: isa.FMIN, bytecode.FMAX: isa.FMAX,
}

// unOpMap maps one-operand bytecodes to native ops.
var unOpMap = map[bytecode.Op]isa.Op{
	bytecode.FNEG: isa.FNEG, bytecode.FABS: isa.FABS,
	bytecode.F2I: isa.CVTFI, bytecode.I2F: isa.CVTIF,
	bytecode.FSQRT: isa.FSQRT, bytecode.FSIN: isa.FSIN, bytecode.FCOS: isa.FCOS,
	bytecode.FEXP: isa.FEXP, bytecode.FLOG: isa.FLOG,
}

// cmpBranchMap maps two-operand compare branches to native branch ops.
var cmpBranchMap = map[bytecode.Op]isa.Op{
	bytecode.IFICMPEQ: isa.BEQ, bytecode.IFICMPNE: isa.BNE,
	bytecode.IFICMPLT: isa.BLT, bytecode.IFICMPGE: isa.BGE,
	bytecode.IFICMPGT: isa.BGT, bytecode.IFICMPLE: isa.BLE,
}

// zeroBranchMap maps compare-to-zero branches.
var zeroBranchMap = map[bytecode.Op]isa.Op{
	bytecode.IFEQ: isa.BEQ, bytecode.IFNE: isa.BNE,
	bytecode.IFLT: isa.BLT, bytecode.IFGE: isa.BGE,
	bytecode.IFGT: isa.BGT, bytecode.IFLE: isa.BLE,
}

// ctxAt returns the innermost selected-loop context containing pc, if any.
func (lw *lowerer) ctxAt(pc int) *stlCtx {
	for _, l := range lw.enclosingLoops(lw.g.BlockAt(pc)) {
		if ctx := lw.stls[l.Index]; ctx != nil {
			return ctx
		}
	}
	return nil
}

// interestingCarried reports whether loop l carries slot in a way the
// profiler must observe: carried AND not already removed by a statically
// decided optimization (inductors, resetable inductors and reductions are
// computed locally per CPU, so the analyzer discounts their dependency arcs
// without ever looking at them). This is the paper's "compiler
// optimizations to eliminate unnecessary annotations" (§3.2) — it is what
// keeps the average profiling slowdown below 10%: ordinary loop counters
// and accumulators need no lwl/swl at all.
func interestingCarried(l *cfg.Loop, slot int) bool {
	carried := false
	for _, c := range l.Carried {
		if c == slot {
			carried = true
		}
	}
	if !carried {
		return false
	}
	if _, ok := l.Inductors[slot]; ok {
		return false
	}
	if _, ok := l.Resetable[slot]; ok {
		return false
	}
	if _, ok := l.Reductions[slot]; ok {
		return false
	}
	return true
}

// annotateLoad reports whether a LOAD of slot at pc needs an lwl
// annotation: some enclosing loop must carry it un-optimized.
func (lw *lowerer) annotateLoad(pc, slot int) bool {
	for _, l := range lw.enclosingLoops(lw.g.BlockAt(pc)) {
		if interestingCarried(l, slot) {
			return true
		}
	}
	return false
}

// annotateStore reports whether a STORE/IINC of slot needs an swl
// annotation. Stores must be annotated more broadly than loads: a store
// KILLS earlier timestamps, so if any loop in the method annotates the
// slot's loads, every store must refresh the timestamp — including
// re-initializations outside any loop of this method, which are inside a
// caller's loop whenever the method is invoked from a loop body. A missed
// kill makes an enclosing profiling bank report a false inter-thread
// dependency.
func (lw *lowerer) annotateStore(pc, slot int) bool {
	for _, l := range lw.g.Loops {
		if interestingCarried(l, slot) {
			return true
		}
	}
	return false
}

// localWrite stores a popped value into a local variable.
func (lw *lowerer) localWrite(slot int, v val) {
	if r := lw.place.reg[slot]; r != noReg {
		lw.useInto(v, r)
		return
	}
	rv, owned := lw.use(v)
	lw.b.Sw(rv, isa.FP, int64(slot))
	if owned {
		lw.freeTemp(rv)
	}
}

// lower translates one bytecode instruction.
func (lw *lowerer) lower(pc int) error {
	in := lw.m.Code[pc]
	b := lw.b
	ctx := lw.ctxAt(pc)
	if ctx != nil {
		if s, ok := ctx.waitPC[pc]; ok {
			lw.emitWait(ctx, s)
		}
	}
	ann := lw.mode == ModeAnnotated

	switch in.Op {
	case bytecode.NOP:

	case bytecode.CONST, bytecode.FCONST:
		lw.pushConst(in.A)

	case bytecode.POP:
		v := lw.pop()
		if v.kind == vTemp {
			lw.freeTemp(v.reg)
		} else if v.kind == vSpill {
			lw.freeSpillSlot(v.spill)
		}

	case bytecode.DUP:
		v := lw.pop()
		if v.kind == vTemp {
			r := lw.freshTemp()
			b.Move(r, v.reg)
			lw.push(v)
			lw.pushTemp(r)
		} else {
			lw.push(v)
			lw.push(v)
		}

	case bytecode.LOAD:
		if ann && lw.annotateLoad(pc, int(in.A)) {
			b.Emit(isa.Instr{Op: isa.LWL, Imm: in.A})
		}
		lw.push(val{kind: vLocal, slot: int(in.A)})

	case bytecode.STORE:
		if ann && lw.annotateStore(pc, int(in.A)) {
			b.Emit(isa.Instr{Op: isa.SWL, Imm: in.A})
		}
		v := lw.pop()
		lw.localWrite(int(in.A), v)
		if ctx != nil {
			if s, ok := ctx.resetStore[pc]; ok {
				lw.emitResetComm(ctx, s, pc)
			}
		}

	case bytecode.IINC:
		if ann && lw.annotateLoad(pc, int(in.A)) {
			b.Emit(isa.Instr{Op: isa.LWL, Imm: in.A})
		}
		if ann && lw.annotateStore(pc, int(in.A)) {
			b.Emit(isa.Instr{Op: isa.SWL, Imm: in.A})
		}
		slot := int(in.A)
		if r := lw.place.reg[slot]; r != noReg {
			b.OpImm(isa.ADDI, r, r, in.B)
		} else {
			t := lw.freshTemp()
			b.Lw(t, isa.FP, int64(slot))
			b.OpImm(isa.ADDI, t, t, in.B)
			b.Sw(t, isa.FP, int64(slot))
			lw.freeTemp(t)
		}
		if ctx != nil {
			if s, ok := ctx.resetStore[pc]; ok {
				lw.emitResetComm(ctx, s, pc)
			}
		}

	case bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IDIV,
		bytecode.IREM, bytecode.IAND, bytecode.IOR, bytecode.IXOR,
		bytecode.ISHL, bytecode.ISHR, bytecode.IUSHR,
		bytecode.IMIN, bytecode.IMAX,
		bytecode.FADD, bytecode.FSUB, bytecode.FMUL, bytecode.FDIV,
		bytecode.FMIN, bytecode.FMAX:
		lw.binop(intOpMap[in.Op])

	case bytecode.INEG:
		// 0 - x
		v := lw.pop()
		rv, ov := lw.use(v)
		rd := rv
		if !ov {
			rd = lw.freshTemp()
		}
		b.Op3(isa.SUB, rd, isa.Zero, rv)
		lw.pushTemp(rd)

	case bytecode.FNEG, bytecode.FABS, bytecode.F2I, bytecode.I2F,
		bytecode.FSQRT, bytecode.FSIN, bytecode.FCOS, bytecode.FEXP,
		bytecode.FLOG:
		lw.unop(unOpMap[in.Op])

	case bytecode.GOTO:
		lw.flushCanonical()
		b.Jmp(lw.jumpLabel(pc, int(in.A)))

	case bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFGE,
		bytecode.IFGT, bytecode.IFLE:
		lw.flushCanonical()
		v := lw.pop()
		r, _ := v.reg, v.kind // canonical: vTemp
		b.Br(zeroBranchMap[in.Op], r, isa.Zero, lw.jumpLabel(pc, int(in.A)))
		lw.freeTemp(r)

	case bytecode.IFICMPEQ, bytecode.IFICMPNE, bytecode.IFICMPLT,
		bytecode.IFICMPGE, bytecode.IFICMPGT, bytecode.IFICMPLE:
		lw.flushCanonical()
		rhs := lw.pop()
		lhs := lw.pop()
		b.Br(cmpBranchMap[in.Op], lhs.reg, rhs.reg, lw.jumpLabel(pc, int(in.A)))
		lw.freeTemp(lhs.reg)
		lw.freeTemp(rhs.reg)

	case bytecode.IFFCMPLT, bytecode.IFFCMPGE:
		lw.flushCanonical()
		rhs := lw.pop()
		lhs := lw.pop()
		b.Op3(isa.FSLT, lhs.reg, lhs.reg, rhs.reg)
		br := isa.BNE // taken when lhs < rhs
		if in.Op == bytecode.IFFCMPGE {
			br = isa.BEQ
		}
		b.Br(br, lhs.reg, isa.Zero, lw.jumpLabel(pc, int(in.A)))
		lw.freeTemp(lhs.reg)
		lw.freeTemp(rhs.reg)

	case bytecode.NEW:
		r := lw.freshTemp()
		b.Emit(isa.Instr{Op: isa.ALLOC, Rd: r, Imm: in.A})
		lw.pushTemp(r)

	case bytecode.NEWARRAY:
		v := lw.pop()
		rv, ov := lw.use(v)
		rd := rv
		if !ov {
			rd = lw.freshTemp()
		}
		b.Emit(isa.Instr{Op: isa.ALLOCARR, Rd: rd, Rs: rv})
		lw.pushTemp(rd)

	case bytecode.GETFIELD:
		ref := lw.pop()
		rr, or := lw.use(ref)
		b.Emit(isa.Instr{Op: isa.CHKNULL, Rs: rr})
		rd := rr
		if !or {
			rd = lw.freshTemp()
		}
		b.Lw(rd, rr, bytecode.ObjectHeaderWords+in.A)
		lw.pushTemp(rd)

	case bytecode.PUTFIELD:
		v := lw.pop()
		ref := lw.pop()
		rr, or := lw.use(ref)
		b.Emit(isa.Instr{Op: isa.CHKNULL, Rs: rr})
		rv, ov := lw.use(v)
		b.Sw(rv, rr, bytecode.ObjectHeaderWords+in.A)
		if or {
			lw.freeTemp(rr)
		}
		if ov {
			lw.freeTemp(rv)
		}

	case bytecode.GETSTATIC:
		r := lw.freshTemp()
		b.Lw(r, isa.GP, in.A)
		lw.pushTemp(r)

	case bytecode.PUTSTATIC:
		v := lw.pop()
		rv, ov := lw.use(v)
		b.Sw(rv, isa.GP, in.A)
		if ov {
			lw.freeTemp(rv)
		}

	case bytecode.ALOAD:
		idx := lw.pop()
		ref := lw.pop()
		rr, or := lw.use(ref)
		ri, oi := lw.use(idx)
		b.Emit(isa.Instr{Op: isa.CHKIDX, Rs: rr, Rt: ri})
		var rd isa.Reg
		switch {
		case oi:
			rd = ri
			if or {
				lw.freeTemp(rr)
			}
		case or:
			rd = rr
		default:
			rd = lw.freshTemp()
		}
		b.Op3(isa.ADD, rd, rr, ri)
		b.Lw(rd, rd, bytecode.ArrayHeaderWords)
		lw.pushTemp(rd)

	case bytecode.ASTORE:
		v := lw.pop()
		idx := lw.pop()
		ref := lw.pop()
		rr, or := lw.use(ref)
		ri, oi := lw.use(idx)
		b.Emit(isa.Instr{Op: isa.CHKIDX, Rs: rr, Rt: ri})
		var ra isa.Reg
		if oi {
			ra = ri
		} else if or {
			ra = rr
		} else {
			ra = lw.freshTemp()
		}
		b.Op3(isa.ADD, ra, rr, ri)
		rv, ov := lw.use(v)
		b.Sw(rv, ra, bytecode.ArrayHeaderWords)
		lw.freeTemp(ra)
		if or && ra != rr {
			lw.freeTemp(rr)
		}
		if oi && ra != ri {
			lw.freeTemp(ri)
		}
		if ov {
			lw.freeTemp(rv)
		}

	case bytecode.ARRLEN:
		ref := lw.pop()
		rr, or := lw.use(ref)
		b.Emit(isa.Instr{Op: isa.CHKNULL, Rs: rr})
		rd := rr
		if !or {
			rd = lw.freshTemp()
		}
		b.Lw(rd, rr, 2)
		lw.pushTemp(rd)

	case bytecode.INVOKE:
		callee := lw.prog.Method(int(in.A))
		n := callee.NArgs
		if n > len(lw.stack) {
			return fmt.Errorf("invoke arity underflow")
		}
		args := make([]val, n)
		copy(args, lw.stack[len(lw.stack)-n:])
		lw.stack = lw.stack[:len(lw.stack)-n]
		// Spill surviving temporaries: T and A registers are caller-saved.
		for i := range lw.stack {
			if lw.stack[i].kind == vTemp {
				slot := lw.allocSpill()
				b.Sw(lw.stack[i].reg, isa.FP, slot)
				lw.freeTemp(lw.stack[i].reg)
				lw.stack[i] = val{kind: vSpill, spill: slot}
			}
		}
		for i, a := range args {
			lw.useInto(a, isa.A0+isa.Reg(i))
		}
		b.Call(int(in.A))
		if callee.HasResult {
			r := lw.freshTemp()
			b.Move(r, isa.V0)
			lw.pushTemp(r)
		}

	case bytecode.RETURN:
		lw.emitEloopsForEscape(pc)
		lw.epilogue()
		b.Emit(isa.Instr{Op: isa.RET})

	case bytecode.IRETURN:
		v := lw.pop()
		lw.useInto(v, isa.V0)
		lw.emitEloopsForEscape(pc)
		lw.epilogue()
		b.Emit(isa.Instr{Op: isa.RET})

	case bytecode.MONITORENTER:
		v := lw.pop()
		rv, ov := lw.use(v)
		b.Emit(isa.Instr{Op: isa.MONENTER, Rs: rv})
		if ov {
			lw.freeTemp(rv)
		}

	case bytecode.MONITOREXIT:
		v := lw.pop()
		rv, ov := lw.use(v)
		b.Emit(isa.Instr{Op: isa.MONEXIT, Rs: rv})
		if ov {
			lw.freeTemp(rv)
		}

	case bytecode.ATHROW:
		v := lw.pop()
		rv, ov := lw.use(v)
		b.Emit(isa.Instr{Op: isa.THROW, Rs: rv})
		if ov {
			lw.freeTemp(rv)
		}

	case bytecode.PRINT:
		v := lw.pop()
		rv, ov := lw.use(v)
		b.Emit(isa.Instr{Op: isa.IOPUT, Rs: rv})
		if ov {
			lw.freeTemp(rv)
		}

	default:
		return fmt.Errorf("unimplemented bytecode %s", in.Op.Name())
	}

	if ctx != nil {
		if s, ok := ctx.sigPC[pc]; ok {
			lw.emitSignal(ctx, s)
		}
	}
	return nil
}

// emitEloopsForEscape closes profiling banks for every loop a return exits
// (annotated mode only).
func (lw *lowerer) emitEloopsForEscape(pc int) {
	if lw.mode != ModeAnnotated {
		return
	}
	for _, l := range lw.enclosingLoops(lw.g.BlockAt(pc)) {
		lw.b.Emit(isa.Instr{Op: isa.ELOOP, Imm: lw.loopID(l)})
	}
}
