package hydra

import (
	"fmt"
	"math"

	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
)

func f64(bits int64) float64 { return math.Float64frombits(uint64(bits)) }
func bits(f float64) int64   { return int64(math.Float64bits(f)) }
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// exec runs one instruction on c. Every data access the instruction makes
// itself is bounds-checked before it touches the memory model, so a wild
// address takes a direct branch to the fault disposition (dataFaultAt) and
// leaves the CPU on the faulting instruction with no partial architectural
// update; a speculative fault then defers cleanly (§5.1). Only the VM
// runtime's own accesses can still fault mid-instruction, and guardRuntime
// recovers those around each runtime call.
func (m *Machine) exec(c *CPU) {
	method := m.Image.Method(c.MethodID)
	if c.PC < 0 || c.PC >= len(method.Code) {
		m.fail(m.badProgram(c, "pc %d out of range in %s", c.PC, method.Name))
		return
	}
	in := method.Code[c.PC]
	m.Instructions++
	c.extra = 0
	// Deterministic fault injection: a spurious RAW violation hits this
	// speculative thread as if an older store had touched one of its exposed
	// reads (the thread and everything younger restart).
	if m.TLS.Active() && !m.TLS.IsHead(c.ID) && m.inj.SpuriousRAW() {
		for _, vc := range m.TLS.ViolateSynthetic(m.TLS.Iteration(c.ID), obs.SiteInjected) {
			if m.rec != nil {
				m.record(obs.EvViolation, vc, -1, int64(c.ID))
			}
			m.redirectRestart(m.CPUs[vc])
		}
		return
	}
	cost := isa.Cost(in.Op)
	r := &c.Regs
	advance := true

	switch in.Op {
	case isa.NOP:

	// Integer ALU.
	case isa.ADD:
		r[in.Rd] = r[in.Rs] + r[in.Rt]
	case isa.SUB:
		r[in.Rd] = r[in.Rs] - r[in.Rt]
	case isa.MUL:
		r[in.Rd] = r[in.Rs] * r[in.Rt]
	case isa.DIV:
		if r[in.Rt] == 0 {
			m.trap(c, isa.ExArithmetic, 0)
			return
		}
		r[in.Rd] = r[in.Rs] / r[in.Rt]
	case isa.REM:
		if r[in.Rt] == 0 {
			m.trap(c, isa.ExArithmetic, 0)
			return
		}
		r[in.Rd] = r[in.Rs] % r[in.Rt]
	case isa.AND:
		r[in.Rd] = r[in.Rs] & r[in.Rt]
	case isa.OR:
		r[in.Rd] = r[in.Rs] | r[in.Rt]
	case isa.XOR:
		r[in.Rd] = r[in.Rs] ^ r[in.Rt]
	case isa.NOR:
		r[in.Rd] = ^(r[in.Rs] | r[in.Rt])
	case isa.SLL:
		r[in.Rd] = r[in.Rs] << uint64(r[in.Rt]&63)
	case isa.SRL:
		r[in.Rd] = int64(uint64(r[in.Rs]) >> uint64(r[in.Rt]&63))
	case isa.SRA:
		r[in.Rd] = r[in.Rs] >> uint64(r[in.Rt]&63)
	case isa.SLT:
		r[in.Rd] = b2i(r[in.Rs] < r[in.Rt])
	case isa.SLE:
		r[in.Rd] = b2i(r[in.Rs] <= r[in.Rt])
	case isa.SEQ:
		r[in.Rd] = b2i(r[in.Rs] == r[in.Rt])
	case isa.SNE:
		r[in.Rd] = b2i(r[in.Rs] != r[in.Rt])
	case isa.MIN:
		if r[in.Rs] < r[in.Rt] {
			r[in.Rd] = r[in.Rs]
		} else {
			r[in.Rd] = r[in.Rt]
		}
	case isa.MAX:
		if r[in.Rs] > r[in.Rt] {
			r[in.Rd] = r[in.Rs]
		} else {
			r[in.Rd] = r[in.Rt]
		}

	// Immediate forms.
	case isa.ADDI:
		r[in.Rd] = r[in.Rs] + in.Imm
	case isa.ANDI:
		r[in.Rd] = r[in.Rs] & in.Imm
	case isa.ORI:
		r[in.Rd] = r[in.Rs] | in.Imm
	case isa.XORI:
		r[in.Rd] = r[in.Rs] ^ in.Imm
	case isa.SLLI:
		r[in.Rd] = r[in.Rs] << uint64(in.Imm&63)
	case isa.SRLI:
		r[in.Rd] = int64(uint64(r[in.Rs]) >> uint64(in.Imm&63))
	case isa.SRAI:
		r[in.Rd] = r[in.Rs] >> uint64(in.Imm&63)
	case isa.SLTI:
		r[in.Rd] = b2i(r[in.Rs] < in.Imm)
	case isa.LI:
		r[in.Rd] = in.Imm

	// Floating point.
	case isa.FADD:
		r[in.Rd] = bits(f64(r[in.Rs]) + f64(r[in.Rt]))
	case isa.FSUB:
		r[in.Rd] = bits(f64(r[in.Rs]) - f64(r[in.Rt]))
	case isa.FMUL:
		r[in.Rd] = bits(f64(r[in.Rs]) * f64(r[in.Rt]))
	case isa.FDIV:
		r[in.Rd] = bits(f64(r[in.Rs]) / f64(r[in.Rt]))
	case isa.FNEG:
		r[in.Rd] = bits(-f64(r[in.Rs]))
	case isa.FABS:
		r[in.Rd] = bits(math.Abs(f64(r[in.Rs])))
	case isa.FMIN:
		r[in.Rd] = bits(math.Min(f64(r[in.Rs]), f64(r[in.Rt])))
	case isa.FMAX:
		r[in.Rd] = bits(math.Max(f64(r[in.Rs]), f64(r[in.Rt])))
	case isa.FSLT:
		r[in.Rd] = b2i(f64(r[in.Rs]) < f64(r[in.Rt]))
	case isa.FSLE:
		r[in.Rd] = b2i(f64(r[in.Rs]) <= f64(r[in.Rt]))
	case isa.FSEQ:
		r[in.Rd] = b2i(f64(r[in.Rs]) == f64(r[in.Rt]))
	case isa.CVTIF:
		r[in.Rd] = bits(float64(r[in.Rs]))
	case isa.CVTFI:
		r[in.Rd] = int64(f64(r[in.Rs]))
	case isa.FSQRT:
		r[in.Rd] = bits(math.Sqrt(f64(r[in.Rs])))
	case isa.FSIN:
		r[in.Rd] = bits(math.Sin(f64(r[in.Rs])))
	case isa.FCOS:
		r[in.Rd] = bits(math.Cos(f64(r[in.Rs])))
	case isa.FEXP:
		r[in.Rd] = bits(math.Exp(f64(r[in.Rs])))
	case isa.FLOG:
		r[in.Rd] = bits(math.Log(f64(r[in.Rs])))

	// Memory. Effective addresses are bounds-checked here so the common wild
	// wrong-path access takes a direct branch to the fault disposition instead
	// of a panic unwind out of the memory model.
	case isa.LW:
		a := mem.Addr(r[in.Rs] + in.Imm)
		if !m.Mem.InRange(a) {
			m.wildLoad(c, a, false)
			return
		}
		r[in.Rd] = m.loadWord(c, a, false, ClassHeap)
	case isa.LWNV:
		a := mem.Addr(r[in.Rs] + in.Imm)
		if !m.Mem.InRange(a) {
			m.wildLoad(c, a, true)
			return
		}
		r[in.Rd] = m.loadWord(c, a, true, ClassHeap)
	case isa.SW:
		a := mem.Addr(r[in.Rs] + in.Imm)
		if !m.Mem.InRange(a) {
			m.dataFaultAt(c, a, true)
			return
		}
		m.storeWord(c, a, r[in.Rt], ClassHeap)

	// Control flow.
	case isa.BEQ:
		if r[in.Rs] == r[in.Rt] {
			c.PC = in.Target
			advance = false
		}
	case isa.BNE:
		if r[in.Rs] != r[in.Rt] {
			c.PC = in.Target
			advance = false
		}
	case isa.BLT:
		if r[in.Rs] < r[in.Rt] {
			c.PC = in.Target
			advance = false
		}
	case isa.BGE:
		if r[in.Rs] >= r[in.Rt] {
			c.PC = in.Target
			advance = false
		}
	case isa.BLE:
		if r[in.Rs] <= r[in.Rt] {
			c.PC = in.Target
			advance = false
		}
	case isa.BGT:
		if r[in.Rs] > r[in.Rt] {
			c.PC = in.Target
			advance = false
		}
	case isa.J:
		c.PC = in.Target
		advance = false
	case isa.CALL:
		callee := m.Image.Method(in.Target)
		c.frames = append(c.frames, frame{
			retMethod: c.MethodID, retPC: c.PC + 1,
			savedFP: r[isa.FP], savedSP: r[isa.SP],
		})
		r[isa.SP] -= callee.FrameWords
		r[isa.FP] = r[isa.SP]
		if mem.Addr(r[isa.SP]) <= HeapBase {
			m.fail(fmt.Errorf("%w: cpu%d calling %s at cycle %d (sp %d)",
				ErrStackOverflow, c.ID, callee.Name, m.Clock, r[isa.SP]))
			return
		}
		c.MethodID = in.Target
		c.PC = 0
		advance = false
		cost = 2
	case isa.RET:
		if len(c.frames) == 0 {
			m.halted = true
			return
		}
		f := c.frames[len(c.frames)-1]
		c.frames = c.frames[:len(c.frames)-1]
		r[isa.FP] = f.savedFP
		r[isa.SP] = f.savedSP
		c.MethodID = f.retMethod
		c.PC = f.retPC
		advance = false
		cost = 2

	// TEST annotations (present only in annotation-mode code).
	case isa.LWL:
		if m.Tracer != nil {
			gslot := uint32(c.MethodID)*256 + uint32(in.Imm)
			key := uint64(r[isa.FP])<<16 | uint64(gslot)
			m.Tracer.OnLocalLoad(key, gslot, m.Clock)
		}
	case isa.SWL:
		if m.Tracer != nil {
			gslot := uint32(c.MethodID)*256 + uint32(in.Imm)
			key := uint64(r[isa.FP])<<16 | uint64(gslot)
			m.Tracer.OnLocalStore(key, gslot, m.Clock)
		}
	case isa.SLOOP:
		if m.Tracer != nil {
			m.Tracer.OnSloop(in.Imm, m.Clock)
		}
	case isa.EOI:
		if m.Tracer != nil {
			m.Tracer.OnEOI(in.Imm, m.Clock)
		}
	case isa.ELOOP:
		if m.Tracer != nil {
			m.Tracer.OnEloop(in.Imm, m.Clock)
		}

	// TLS control.
	case isa.STLSTART:
		m.doSTLStart(c, in.Imm)
		return
	case isa.STLEOI:
		if m.TLS.IsHead(c.ID) {
			m.commitEOI(c)
		} else {
			c.state = stateWaitEOI
			m.recWait(c, obs.WaitEOI)
			m.wait(c)
		}
		return
	case isa.STLSHUTDOWN:
		if m.TLS.IsHead(c.ID) {
			m.doShutdown(c)
		} else {
			c.state = stateWaitShutdown
			m.recWait(c, obs.WaitShutdown)
			m.wait(c)
		}
		return
	case isa.STLSWSTART:
		if m.outerSTL != nil {
			m.fail(m.badProgram(c, "nested multilevel STL switch"))
			return
		}
		if m.TLS.IsHead(c.ID) {
			m.doSwitchIn(c)
		} else {
			c.state = stateWaitSwitchIn
			m.recWait(c, obs.WaitSwitchIn)
			m.wait(c)
		}
		return
	case isa.STLSWEND:
		if m.TLS.IsHead(c.ID) {
			m.doSwitchOut(c)
		} else {
			c.state = stateWaitSwitchOut
			m.recWait(c, obs.WaitSwitchOut)
			m.wait(c)
		}
		return
	case isa.MFC2:
		switch in.Imm {
		case isa.CP2Iteration:
			r[in.Rd] = m.TLS.Iteration(c.ID)
		case isa.CP2CPUID:
			r[in.Rd] = int64(c.ID)
		default:
			m.fail(m.badProgram(c, "unknown cp2 register %d", in.Imm))
			return
		}

	// VM runtime.
	case isa.ALLOC:
		// Injected heap exhaustion forces the GC path exactly once per
		// allocation site visit (never when a real collection already ran,
		// so injection cannot fake an out-of-memory condition).
		if c.gcAttempts == 0 && m.inj.HeapExhausted() {
			m.requestGC(c)
			return
		}
		var ref int64
		var gcNeeded bool
		if m.guardRuntime(c, func() { ref, gcNeeded = m.Runtime.Alloc(m, c.ID, in.Imm) }) {
			return
		}
		if gcNeeded {
			m.requestGC(c)
			return
		}
		c.gcAttempts = 0
		r[in.Rd] = ref
	case isa.ALLOCARR:
		n := r[in.Rs]
		if n < 0 {
			m.trap(c, isa.ExArrayBounds, 0)
			return
		}
		if c.gcAttempts == 0 && m.inj.HeapExhausted() {
			m.requestGC(c)
			return
		}
		var ref int64
		var gcNeeded bool
		if m.guardRuntime(c, func() { ref, gcNeeded = m.Runtime.AllocArray(m, c.ID, n) }) {
			return
		}
		if gcNeeded {
			m.requestGC(c)
			return
		}
		c.gcAttempts = 0
		r[in.Rd] = ref
	case isa.MONENTER:
		if r[in.Rs] == 0 {
			m.trap(c, isa.ExNullPointer, 0)
			return
		}
		if m.guardRuntime(c, func() { m.Runtime.MonitorEnter(m, c.ID, r[in.Rs]) }) {
			return
		}
	case isa.MONEXIT:
		if r[in.Rs] == 0 {
			m.trap(c, isa.ExNullPointer, 0)
			return
		}
		if m.guardRuntime(c, func() { m.Runtime.MonitorExit(m, c.ID, r[in.Rs]) }) {
			return
		}
	case isa.THROW:
		m.trap(c, isa.ExUser, r[in.Rs])
		return
	case isa.CHKNULL:
		if r[in.Rs] == 0 {
			m.trap(c, isa.ExNullPointer, 0)
			return
		}
	case isa.CHKIDX:
		ref := r[in.Rs]
		if ref == 0 {
			m.trap(c, isa.ExNullPointer, 0)
			return
		}
		a := mem.Addr(ref + 2)
		if !m.Mem.InRange(a) {
			m.wildLoad(c, a, false)
			return
		}
		length := m.loadWord(c, a, false, ClassHeap)
		if idx := r[in.Rt]; idx < 0 || idx >= length {
			m.trap(c, isa.ExArrayBounds, 0)
			return
		}
	case isa.IOPUT:
		if m.TLS.Active() && !m.TLS.IsHead(c.ID) {
			c.pendingIO = r[in.Rs]
			c.state = stateWaitIO
			m.recWait(c, obs.WaitIO)
			m.wait(c)
			return
		}
		m.Output = append(m.Output, r[in.Rs])
	case isa.HALT:
		m.halted = true
		return

	default:
		m.fail(m.badProgram(c, "unimplemented op %s", in.Op.Name()))
		return
	}

	r[isa.Zero] = 0
	if advance {
		c.PC++
	}
	total := cost + c.extra
	c.extra = 0
	c.readyAt = m.Clock + total
	m.TLS.ChargeAttempt(c.ID, tls.ChargeRun, total)
	if c.overflowPending && m.TLS.Active() {
		m.overflowed(c)
	}
}

// overflowed handles a speculative buffer overflow raised by the instruction
// c just completed: the head drains its buffer in place, any other thread
// parks until it becomes the head.
func (m *Machine) overflowed(c *CPU) {
	if m.rec != nil {
		kind := obs.EvLoadOverflow
		if m.TLS.StoreOverflow(c.ID) {
			kind = obs.EvStoreOverflow
		}
		m.record(kind, c.ID, m.TLS.Iteration(c.ID), m.stlLoopID())
	}
	if m.TLS.IsHead(c.ID) {
		newEpisode, err := m.TLS.DrainOverflow(c.ID)
		if err != nil {
			m.fail(err)
			return
		}
		m.noteOverflow(newEpisode)
		c.overflowPending = false
		if m.rec != nil {
			m.record(obs.EvOverflowDrain, c.ID, m.TLS.Iteration(c.ID), m.stlLoopID())
		}
	} else {
		c.state = stateWaitOverflow
		m.recWait(c, obs.WaitOverflow)
	}
}

// doSTLStart activates speculation at an STLSTART instruction: the executing
// master becomes the head of iteration 0 and the slave CPUs wake at the
// following instruction (STL_INIT) with copies of the master's context.
func (m *Machine) doSTLStart(c *CPU, stlID int64) {
	if m.TLS.Active() {
		m.fail(m.badProgram(c, "STLSTART while speculation active (decomposition selection bug)"))
		return
	}
	desc, ok := m.Image.STLs[stlID]
	if !ok {
		m.fail(m.badProgram(c, "unknown STL %d", stlID))
		return
	}
	m.curSTL = desc
	m.stlFrameDepth = len(c.frames)
	m.stormCount = 0
	// A loop the guard has decertified enters in solo (sequential-fallback)
	// mode: only this CPU runs, iterations advance one at a time, and the
	// loop keeps its TLS-compiled code but sequential semantics. The
	// decertified flag is read before Allow, which consumes backoff state,
	// so the recorder can distinguish a re-probe from a plain start.
	wasDecert := m.Guard != nil && m.Guard.Decertified(desc.LoopID)
	solo := m.Guard != nil && !m.Guard.Allow(desc.LoopID)
	var err error
	if solo {
		err = m.TLS.StartSolo(desc.ID, c.ID)
	} else {
		err = m.TLS.StartAt(desc.ID, c.ID, 0)
	}
	if err != nil {
		m.fail(err)
		return
	}
	startup := m.TLS.Config().Handlers.Startup
	if desc.Hoisted && m.lastHoisted == desc.ID {
		// Repeat entry of a hoisted STL: the slaves are already awake.
		if startup > HoistStartupSaving {
			startup -= HoistStartupSaving
		}
	}
	m.lastHoisted = desc.ID
	if m.rec != nil {
		mode := int64(0)
		switch {
		case solo:
			mode = 1
			m.record(obs.EvGuardSolo, c.ID, desc.LoopID, 0)
		case wasDecert:
			mode = 2
			m.record(obs.EvGuardProbe, c.ID, desc.LoopID, 0)
		}
		m.record(obs.EvSTLStart, c.ID, desc.LoopID, mode)
		m.record(obs.EvHandlerStartup, c.ID, startup, desc.LoopID)
		m.record(obs.EvThreadSpawn, c.ID, m.TLS.Iteration(c.ID), desc.LoopID)
	}
	if m.led != nil {
		mode := obs.LoopParallel
		switch {
		case solo:
			mode = obs.LoopSolo
		case wasDecert:
			mode = obs.LoopProbe
		}
		m.led.BeginSTL(desc.LoopID, mode)
	}
	if !solo {
		m.deploySlaves(c, c.PC+1, startup, false)
	}
	c.PC++
	c.readyAt = m.Clock + startup
	if m.led != nil {
		m.led.SpanStartup(c.ID, m.Clock, c.readyAt)
	}
	m.snapshotAll()
}

// requestGC parks a CPU whose allocation failed; the collection runs once
// the thread is non-speculative. If a collection already ran for this
// allocation and the heap is still exhausted, the program is out of memory.
func (m *Machine) requestGC(c *CPU) {
	c.gcAttempts++
	if c.gcAttempts > 1 {
		m.fail(fmt.Errorf("%w: allocation by cpu%d still fails after collection (cycle %d)",
			ErrOutOfMemory, c.ID, m.Clock))
		return
	}
	if m.TLS.Active() && !m.TLS.IsHead(c.ID) {
		c.state = stateWaitGC
		m.recWait(c, obs.WaitGC)
		m.wait(c)
		return
	}
	m.quiesceForGC(c)
	if m.guardRuntime(c, func() { m.Runtime.CollectGarbage(m, c.ID) }) {
		return
	}
	m.GCRuns++
	if m.rec != nil {
		m.record(obs.EvGC, c.ID, m.GCRuns, 0)
	}
	// PC unchanged: re-execute the allocation.
	c.readyAt = m.Clock + 1 + c.extra
	c.extra = 0
	if m.led != nil {
		m.led.SpanGC(c.ID, m.Clock, c.readyAt)
	}
}

// trap raises a hardware or software exception at the current pc. A
// speculative non-head thread defers the exception until it becomes the head
// (it may yet be violated, in which case the exception was false — §5.1).
func (m *Machine) trap(c *CPU, kind int64, ref int64) {
	if m.TLS.Active() && !m.TLS.IsHead(c.ID) {
		c.pendingExKind = kind
		c.pendingExRef = ref
		c.state = stateWaitException
		m.recWait(c, obs.WaitException)
		m.wait(c)
		return
	}
	m.dispatchException(c, kind, ref)
}

// dispatchException finds the nearest matching handler up the call stack. A
// handler inside the active STL region keeps speculation alive (the catch is
// part of the iteration); otherwise speculation terminates before control
// transfers out (§5.1).
func (m *Machine) dispatchException(c *CPU, kind int64, ref int64) {
	methodID := c.MethodID
	pc := c.PC
	depth := len(c.frames)
	for {
		meth := m.Image.Method(methodID)
		for _, h := range meth.Handlers {
			if pc >= h.Start && pc < h.End && (h.Kind == 0 || h.Kind == kind) {
				m.resolveHandler(c, depth, methodID, h.Target, ref)
				return
			}
		}
		if depth == 0 {
			m.fail(fmt.Errorf("%w: kind %d in %s at pc %d", ErrUncaughtException, kind, meth.Name, pc))
			return
		}
		depth--
		f := c.frames[depth]
		methodID = f.retMethod
		pc = f.retPC - 1 // the call site
	}
}

// resolveHandler unwinds to the handler frame and jumps to the handler with
// the exception object in $v0.
func (m *Machine) resolveHandler(c *CPU, depth int, methodID int, target int, ref int64) {
	if m.TLS.Active() {
		stay := depth > m.stlFrameDepth ||
			(depth == m.stlFrameDepth && methodID == m.curSTL.Method &&
				target >= m.curSTL.BodyStart && target < m.curSTL.BodyEnd)
		if !stay {
			loopID := m.stlLoopID()
			killed, err := m.TLS.Shutdown(c.ID)
			if err != nil {
				m.fail(err)
				return
			}
			for _, k := range killed {
				m.CPUs[k].state = stateIdle
			}
			if m.rec != nil {
				for _, k := range killed {
					m.record(obs.EvKill, k, loopID, 0)
				}
				m.record(obs.EvSTLShutdown, c.ID, loopID, 0)
			}
			m.Master = c.ID
			m.guardOnExit()
			m.stormCount = 0
			m.curSTL = nil
			m.outerSTL = nil
			if m.led != nil {
				m.led.EndSTL()
			}
		}
	}
	unwound := len(c.frames) - depth
	for len(c.frames) > depth {
		// Restore the callee-saved registers the abandoned frame's method
		// stored in its prologue (its epilogue will never run).
		meth := m.Image.Method(c.MethodID)
		for i, reg := range meth.SavedRegs {
			c.Regs[reg] = m.loadWord(c, mem.Addr(c.Regs[isa.FP]+meth.SaveBase+int64(i)), false, ClassHeap)
		}
		f := c.frames[len(c.frames)-1]
		c.frames = c.frames[:len(c.frames)-1]
		c.Regs[isa.FP] = f.savedFP
		c.Regs[isa.SP] = f.savedSP
		c.MethodID = f.retMethod
	}
	c.MethodID = methodID
	c.PC = target
	c.Regs[isa.V0] = ref
	c.state = stateRunning
	c.readyAt = m.Clock + int64(10+5*unwound)
	if m.led != nil {
		m.led.SpanException(c.ID, m.Clock, c.readyAt)
	}
}
