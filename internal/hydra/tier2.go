package hydra

import (
	"fmt"

	"jrpm/internal/isa"
	"jrpm/internal/tls"
)

// Tier-2 block engine.
//
// The cycle-accurate interpreter (exec.go) dispatches one instruction per
// Machine.exec call through a ~300-case switch; profiles show that dispatch —
// not simulation semantics — dominates every serial phase. The tier-2 engine
// removes it for the serial fast loop only: straight-line runs of fusable
// instructions (see isa.Traits) are decoded once into arrays of fused ops
// with direct handler function pointers, a per-block summed static cycle
// cost, and memory ops still routed through loadWord/storeWord so cache
// latency, tracer hooks, and fault semantics are untouched.
//
// Exactness contract: every observable of a run — Clock at every memory
// access, trap, fault, poll, and budget edge; Instructions; Stats.Serial;
// cache state; tracer timestamps; Output — is bit-identical to the
// interpreter. The engine guarantees this by:
//
//   - executing only while exactly one CPU runs and TLS is inactive (the
//     same predicate as the serial fast loop it replaces);
//   - setting m.Clock to the instruction's start cycle before each fused op,
//     so tracer hooks and trap paths observe interpreter-identical clocks;
//   - demoting to single interpreted steps whenever a block's worst-case
//     cycle span could cross the cycle budget or the cancellation poll
//     stride, so those edges fire at bit-identical cycles;
//   - diverting to the interpreter before any side effect when an op would
//     trap or data-fault, re-executing that instruction in exec() so the
//     entire disposition path (deferral, handler search, fault records) is
//     the interpreter's own.
//
// The engine is disabled (m.t2 == nil) whenever a flight recorder or fault
// injection plan is attached — both observe or perturb per-instruction
// events — and when Options.Tier2Off is set.

// DemoteReason classifies why the engine fell back to the interpreter for a
// step (or why speculation forced it out entirely).
type DemoteReason uint8

const (
	// DemoteSpec: an STL marker (start/EOI/shutdown/switch-in/switch-out).
	// Speculation boundaries always interpret, and while TLS is active the
	// engine does not run at all.
	DemoteSpec DemoteReason = iota
	// DemoteCall: CALL or RET (frame linkage, stack-overflow check).
	DemoteCall
	// DemoteGC: ALLOC or ALLOCARR — any allocation may quiesce for GC.
	DemoteGC
	// DemoteIO: IOPUT system call.
	DemoteIO
	// DemoteRuntime: monitors, HALT, or an op the compiler refused
	// (e.g. MFC2 with an unknown coprocessor register).
	DemoteRuntime
	// DemoteTrap: an op that would raise a software exception (divide by
	// zero, null check, bounds check, THROW).
	DemoteTrap
	// DemoteFault: an op whose effective address is out of range.
	DemoteFault
	// DemoteBudget: the block's worst-case span could cross the cycle
	// budget; stepped one instruction at a time instead.
	DemoteBudget
	// DemoteCancel: the block's worst-case span could cross the
	// cancellation poll stride.
	DemoteCancel
	// DemoteBadPC: pc outside the method (the interpreter owns the
	// badProgram failure path).
	DemoteBadPC

	// NumDemoteReasons sizes the per-reason counter array.
	NumDemoteReasons
)

// String returns the metric label for the reason.
func (d DemoteReason) String() string {
	switch d {
	case DemoteSpec:
		return "spec"
	case DemoteCall:
		return "call"
	case DemoteGC:
		return "gc"
	case DemoteIO:
		return "io"
	case DemoteRuntime:
		return "runtime"
	case DemoteTrap:
		return "trap"
	case DemoteFault:
		return "fault"
	case DemoteBudget:
		return "budget"
	case DemoteCancel:
		return "cancel"
	case DemoteBadPC:
		return "badpc"
	}
	return "unknown"
}

// TierStats counts tier-2 activity for one machine run.
type TierStats struct {
	Promotions     int64 // serial-phase entries into the block engine
	BlocksCompiled int64 // blocks decoded (boundary sentinels included)
	CacheHits      int64 // block-cache hits
	CacheMisses    int64 // block-cache misses (each triggers a compile)
	Linked         int64 // successor blocks reached through trace links
	InterpSteps    int64 // single instructions interpreted while promoted
	Demote         [NumDemoteReasons]int64
}

// t2fn executes one fused op. It returns the op's total cycle cost (static
// cost plus charged memory latency), or a negative divert code when the
// instruction must run in the interpreter instead (no architectural side
// effect has happened unless the code says otherwise).
type t2fn func(m *Machine, c *CPU, o *t2op) int64

const (
	// t2DivertTrap: the instruction will raise a software exception.
	// No side effects yet; re-execute it in exec().
	t2DivertTrap = -1
	// t2DivertFault: the instruction's effective address is out of range.
	// No side effects yet; re-execute it in exec().
	t2DivertFault = -2
	// t2DivertBounds: CHKIDX bounds failure. The length word was already
	// loaded (cache and tracer side effects happened, exactly as in the
	// interpreter), so the trap is taken in place rather than re-executed.
	t2DivertBounds = -3
)

// t2op is one fused dispatch unit: one ISA instruction, or a superinstruction
// pair folded into a single handler call. Field roles vary by handler; the
// compiler documents each pairing where it fuses.
type t2op struct {
	fn     t2fn
	imm    int64 // primary immediate
	imm2   int64 // second instruction's immediate (fused pairs)
	cost   int64 // summed static cost of the covered instructions
	pc     int32 // pc of the first covered instruction
	target int32 // branch target
	rd     uint8
	rs     uint8
	rt     uint8
	rd2    uint8 // second instruction's written/stored register (fused pairs)
	rs2    uint8 // second instruction's extra source (fused pairs)
	n      uint8 // ISA instructions covered (1 or 2)
	op     isa.Op
	op2    isa.Op // second fused opcode (NOP when none)
}

// t2block is a compiled straight-line block. A boundary sentinel (ops == nil)
// marks a pc whose instruction must always interpret; reason says why.
type t2block struct {
	ops    []t2op
	static int64 // summed static cost of all ops
	nmem   int32 // memory accesses (for the worst-case latency bound)
	entry  int32
	endPC  int32 // fall-through pc; -1 when the terminal op sets PC itself
	reason DemoteReason
	// Trace links: memoized successors so back-to-back blocks dispatch
	// without a cache probe. succPC is -1 until linked.
	succ   [2]*t2block
	succPC [2]int32
}

// t2method is the per-method block cache, generation-stamped so a recycled
// tier2 can be reused across machines without clearing.
type t2method struct {
	gen    uint64
	blocks []*t2block // indexed by entry pc
}

// tier2 is the per-machine block cache and compile arena. Blocks and op
// arrays are bump-allocated from chunked slabs whose storage travels with
// the machine's hardware through the free list (see hardware.go), so
// steady-state runs compile into warm memory and the dispatch loop
// allocates nothing.
type tier2 struct {
	gen       uint64
	methods   []t2method
	opChunks  [][]t2op
	opCur     int
	blkChunks [][]t2block
	blkCur    int
}

const (
	t2MaxOps   = 64 // dispatch units per block (bounds the worst-case span)
	t2OpChunk  = 4096
	t2BlkChunk = 512
)

// newTier2 returns an empty engine. Its generation starts at 1 so that the
// zero-stamped method slots lookup grows are stale.
func newTier2() *tier2 { return &tier2{gen: 1} }

// reset starts a fresh generation: all cached blocks become stale by
// stamp, slab cursors rewind, and the warm chunk storage is reused in place.
func (t *tier2) reset() {
	t.gen++
	t.opCur, t.blkCur = 0, 0
	for i := range t.opChunks {
		t.opChunks[i] = t.opChunks[i][:0]
	}
	for i := range t.blkChunks {
		t.blkChunks[i] = t.blkChunks[i][:0]
	}
}

// allocBlock bump-allocates one block struct. Chunks are never reallocated
// once created, so returned pointers stay valid for the generation.
func (t *tier2) allocBlock() *t2block {
	for {
		if t.blkCur >= len(t.blkChunks) {
			t.blkChunks = append(t.blkChunks, make([]t2block, 0, t2BlkChunk))
		}
		chunk := t.blkChunks[t.blkCur]
		if len(chunk) < cap(chunk) {
			chunk = chunk[:len(chunk)+1]
			t.blkChunks[t.blkCur] = chunk
			b := &chunk[len(chunk)-1]
			*b = t2block{endPC: -1, succPC: [2]int32{-1, -1}}
			return b
		}
		t.blkCur++
	}
}

// persistOps copies a compiled op sequence into slab storage and returns the
// stable full-capacity slice.
func (t *tier2) persistOps(src []t2op) []t2op {
	need := len(src)
	for {
		if t.opCur >= len(t.opChunks) {
			t.opChunks = append(t.opChunks, make([]t2op, 0, t2OpChunk))
		}
		chunk := t.opChunks[t.opCur]
		off := len(chunk)
		if cap(chunk)-off >= need {
			chunk = chunk[:off+need]
			t.opChunks[t.opCur] = chunk
			dst := chunk[off : off+need : off+need]
			copy(dst, src)
			return dst
		}
		t.opCur++
	}
}

// lookup returns the block starting at the CPU's (MethodID, PC), compiling
// and caching it on first sight. Returns nil only for a pc outside the
// method's code.
func (t *tier2) lookup(m *Machine, c *CPU) *t2block {
	mid := c.MethodID
	if mid >= len(t.methods) {
		grown := make([]t2method, mid+1)
		copy(grown, t.methods)
		t.methods = grown
	}
	tm := &t.methods[mid]
	code := m.Image.Method(mid).Code
	if tm.gen != t.gen {
		tm.gen = t.gen
		if cap(tm.blocks) < len(code) {
			tm.blocks = make([]*t2block, len(code))
		} else {
			tm.blocks = tm.blocks[:len(code)]
			for i := range tm.blocks {
				tm.blocks[i] = nil
			}
		}
	}
	pc := c.PC
	if pc < 0 || pc >= len(tm.blocks) {
		return nil
	}
	if b := tm.blocks[pc]; b != nil {
		m.Tier.CacheHits++
		return b
	}
	m.Tier.CacheMisses++
	m.Tier.BlocksCompiled++
	b := t.compile(code, pc)
	tm.blocks[pc] = b
	return b
}

// t2Fusable reports whether the instruction may join a block. MFC2 is only
// fusable for the coprocessor registers the interpreter knows; an unknown
// index stays interpreted so badProgram fires exactly as before.
func t2Fusable(in *isa.Instr) bool {
	if !isa.Traits(in.Op).Has(isa.TraitFusable) {
		return false
	}
	if in.Op == isa.MFC2 && in.Imm != isa.CP2Iteration && in.Imm != isa.CP2CPUID {
		return false
	}
	return true
}

// boundaryReason maps a non-fusable opcode to its demotion bucket.
func boundaryReason(op isa.Op) DemoteReason {
	switch op {
	case isa.STLSTART, isa.STLEOI, isa.STLSHUTDOWN, isa.STLSWSTART, isa.STLSWEND:
		return DemoteSpec
	case isa.CALL, isa.RET:
		return DemoteCall
	case isa.ALLOC, isa.ALLOCARR:
		return DemoteGC
	case isa.IOPUT:
		return DemoteIO
	case isa.THROW:
		return DemoteTrap
	}
	return DemoteRuntime
}

// compile decodes the straight-line run starting at entry. A non-fusable
// first instruction yields a boundary sentinel; otherwise ops accumulate
// until a terminator, a boundary, or the block size cap.
func (t *tier2) compile(code isa.Code, entry int) *t2block {
	b := t.allocBlock()
	b.entry = int32(entry)
	if !t2Fusable(&code[entry]) {
		b.reason = boundaryReason(code[entry].Op)
		return b
	}
	var scratch [t2MaxOps]t2op
	ops := scratch[:0]
	pc := entry
	terminal := false
	for pc < len(code) && len(ops) < t2MaxOps && !terminal {
		in := &code[pc]
		if !t2Fusable(in) {
			break
		}
		var o t2op
		adv := 1
		if pc+1 < len(code) {
			adv = t2Fuse(in, &code[pc+1], &o)
		}
		if adv == 2 {
			o.pc = int32(pc)
		} else {
			o = t2Single(in, pc)
		}
		tr := isa.Traits(in.Op)
		if adv == 2 {
			tr |= isa.Traits(code[pc+1].Op)
		}
		if tr.Has(isa.TraitMem) {
			b.nmem++
		}
		b.static += o.cost
		ops = append(ops, o)
		pc += adv
		last := o.op
		if o.op2 != isa.NOP {
			last = o.op2
		}
		if last.IsBranch() || last == isa.J {
			terminal = true
		}
	}
	b.ops = t.persistOps(ops)
	if terminal {
		b.endPC = -1
	} else {
		b.endPC = int32(pc)
	}
	return b
}

// runTier2 is the tier-2 serial fast loop: same predicate, clock advance,
// budget, and cancellation semantics as the interpreter fast loop in Run,
// but dispatching whole blocks between checks when the worst-case span
// provably cannot cross a budget or poll edge.
func (m *Machine) runTier2(c *CPU, maxCycles int64) {
	t := m.t2
	var last *t2block
	if m.t2resume {
		// Resuming from a snapshot taken inside this loop: the promotion was
		// already counted before the snapshot, and last re-links the trace
		// predecessor so Linked counts continue exactly.
		m.t2resume = false
		last = m.t2resumeLast
		m.t2resumeLast = nil
	} else {
		m.Tier.Promotions++
	}
	for !m.halted && c.state == stateRunning && !m.TLS.Active() {
		if c.readyAt > m.Clock {
			m.Clock = c.readyAt
		}
		if m.Clock > maxCycles {
			m.fail(fmt.Errorf("%w: budget %d, clock %d", ErrCycleBudgetExceeded, maxCycles, m.Clock))
			return
		}
		if m.ctxDone != nil && m.Clock >= m.nextCtxCheck && m.pollCancel() {
			return
		}
		if m.ckpt != nil && m.Clock >= m.ckptNext {
			m.checkpointNow(true, last)
		}
		var b *t2block
		if last != nil {
			pc := int32(c.PC)
			if pc == last.succPC[0] {
				b = last.succ[0]
				m.Tier.Linked++
			} else if pc == last.succPC[1] {
				b = last.succ[1]
				m.Tier.Linked++
			}
		}
		if b == nil {
			b = t.lookup(m, c)
			if b != nil && b.ops != nil && last != nil {
				if last.succPC[0] < 0 {
					last.succPC[0], last.succ[0] = int32(c.PC), b
				} else if last.succPC[1] < 0 {
					last.succPC[1], last.succ[1] = int32(c.PC), b
				}
			}
		}
		last = nil
		if b == nil || b.ops == nil {
			// Boundary op (scheduler/runtime transition) or out-of-range pc:
			// one cycle-accurate interpreter step owns the transition.
			if b == nil {
				m.Tier.Demote[DemoteBadPC]++
			} else {
				m.Tier.Demote[b.reason]++
			}
			m.Tier.InterpSteps++
			m.exec(c)
			continue
		}
		// Worst case: every access misses to the slowest level. If the block
		// could cross the budget or the poll stride, single-step it so those
		// edges trigger at bit-identical cycles.
		worst := b.static + int64(b.nmem)*m.latMax
		if worst > maxCycles-m.Clock {
			m.Tier.Demote[DemoteBudget]++
			m.Tier.InterpSteps++
			m.exec(c)
			continue
		}
		if m.ctxDone != nil && worst > m.nextCtxCheck-m.Clock {
			m.Tier.Demote[DemoteCancel]++
			m.Tier.InterpSteps++
			m.exec(c)
			continue
		}
		if m.runBlock(c, b) {
			last = b
		}
	}
}

// runBlock executes one compiled block. Accounting is batched: the local
// clock advances per fused op (published to m.Clock before each handler so
// tracer hooks and trap paths observe exact cycles), and the instruction
// count and Stats.Serial charge land in one lump at the end — both are plain
// accumulators with no intermediate observers while TLS is inactive.
// Returns true when the block completed (its trace links are then valid).
func (m *Machine) runBlock(c *CPU, b *t2block) bool {
	clk := m.Clock
	start := clk
	done := 0
	ops := b.ops
	for i := range ops {
		o := &ops[i]
		m.Clock = clk
		n := o.fn(m, c, o)
		if n < 0 {
			// Divert: the instruction at o.pc (+ completed fused prefix)
			// must run in the interpreter. Settle the batch first so exec
			// sees interpreter-identical machine state.
			sub, subCyc := int(m.t2sub), m.t2cyc
			m.t2sub, m.t2cyc = 0, 0
			clk += subCyc
			m.Clock = clk
			m.Instructions += int64(done + sub)
			m.chargeSerial(c, clk-start)
			c.PC = int(o.pc) + sub
			if n == t2DivertBounds {
				// Bounds trap with the length load already performed: take
				// the trap in place (re-execution would double the load).
				m.Instructions++
				m.Tier.Demote[DemoteTrap]++
				m.trap(c, isa.ExArrayBounds, 0)
			} else {
				if n == t2DivertTrap {
					m.Tier.Demote[DemoteTrap]++
				} else {
					m.Tier.Demote[DemoteFault]++
				}
				m.Tier.InterpSteps++
				m.exec(c)
			}
			return false
		}
		clk += n
		done += int(o.n)
	}
	m.Instructions += int64(done)
	m.chargeSerial(c, clk-start)
	c.readyAt = clk
	if b.endPC >= 0 {
		c.PC = int(b.endPC)
	}
	return true
}

// chargeSerial records cycles against the serial accumulator, matching the
// per-instruction ChargeAttempt(ChargeRun) calls the interpreter makes while
// speculation is inactive.
func (m *Machine) chargeSerial(c *CPU, cycles int64) {
	if cycles > 0 {
		if m.led != nil {
			m.TLS.ChargeAttemptDiag(c.ID, tls.ChargeRun, cycles)
			return
		}
		m.TLS.ChargeAttempt(c.ID, tls.ChargeRun, cycles)
	}
}

// BlockInfo describes one tier-2 block for inspection (jrpm dis -blocks).
type BlockInfo struct {
	EntryPC  int
	Len      int // ISA instructions covered
	Ops      int // fused dispatch units
	Cost     int64
	MemOps   int
	Boundary string   // non-empty for a boundary pc: the demotion bucket
	Fused    []string // one mnemonic per dispatch unit, e.g. "addi+lw"
}

// BlockLayout compiles the method's code linearly and reports the resulting
// block shapes. Layout is advisory: at run time blocks are compiled on
// demand at executed pcs, so a branch into the middle of a listed block
// simply starts another (overlapping) block there.
func BlockLayout(img *Image, methodID int) []BlockInfo {
	t := newTier2()
	code := img.Method(methodID).Code
	var out []BlockInfo
	for pc := 0; pc < len(code); {
		b := t.compile(code, pc)
		info := BlockInfo{EntryPC: pc, Cost: b.static, MemOps: int(b.nmem)}
		if b.ops == nil {
			info.Len = 1
			info.Boundary = b.reason.String()
			pc++
		} else {
			info.Ops = len(b.ops)
			for i := range b.ops {
				o := &b.ops[i]
				info.Len += int(o.n)
				name := o.op.Name()
				if o.op2 != isa.NOP {
					name += "+" + o.op2.Name()
				}
				info.Fused = append(info.Fused, name)
			}
			next := int(b.endPC)
			if next < 0 {
				lastOp := &b.ops[len(b.ops)-1]
				next = int(lastOp.pc) + int(lastOp.n)
			}
			pc = next
		}
		out = append(out, info)
	}
	return out
}
