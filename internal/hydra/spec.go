package hydra

import (
	"fmt"
	"math"
	mbits "math/bits"

	"jrpm/internal/isa"
	"jrpm/internal/tls"
)

// Event-driven speculative scheduler.
//
// The reference scheduler (the loop in Run) advances the clock to the
// earliest ready CPU, then steps every ready CPU in ID order, one
// instruction or one headship poll each. While speculation is active that
// costs one scheduler pass per simulated cycle: a CPU waiting for headship
// is ready every cycle, and every register instruction is its own step.
// Hydra's speculative threads interact only through memory, the write bus
// and the head token, so with the tier-2 engine on, runEvents replaces that
// loop with one pass per scheduling point, and two mechanisms skip the
// steps that interact with nothing:
//
//   - Stretches. After each step, a running speculative CPU runs ahead
//     through the register-only instructions that follow (t2RegOnly) on
//     tier-2's stretch blocks, and becomes ready at the cycle its next
//     non-register instruction issues. The stretch leaves m.Clock alone and
//     charges nothing yet.
//   - Sleep. A CPU that has to wait for headship charges its first wait
//     cycle and sleeps; only a commit that makes it the head (wakeHead), a
//     violation or a kill wakes it.
//
// Exactness. Wait cycles, stretch instructions and their run cycles are
// settled lazily, and when an event cuts a stretch short, the registers, pc
// and readyAt are rewound and re-run up to the cut. Each ends up exactly as
// the reference scheduler would have it at the event's cycle and place in
// the CPU-ID order (settle). The tls unit calls settle through its flush
// hook before it flushes or discards any attempt: a store-broadcast
// violation, a GC quiesce, an STL shutdown, a multilevel switch, a guard
// demotion or an exception exit. Run settles every CPU when it returns. A
// stretch never runs an instruction that would issue past the cycle budget
// or at or after the next cancellation poll, and while a CPU sleeps the
// clock stops at both edges, so the budget error and every poll land on the
// reference's cycles.
//
// The scheduler runs only while m.t2 is set (Options.Tier2Off off, no
// recorder, no fault plan); otherwise Run's reference loop runs.

// stretchCap bounds one stretch, so a rewind re-runs at most this many
// instructions.
const stretchCap = 1024

// stretch is a register-only run a speculative CPU made ahead of the clock:
// n instructions from pc, the first issuing at start and the CPU ready again
// at start+cyc. n == 0 means there is none to settle. regs holds the
// pre-stretch value of each register in saved, a superset of the registers
// the stretch wrote.
type stretch struct {
	regs  [isa.NumRegs]int64
	saved uint32
	pc    int
	start int64
	n     int64
	cyc   int64
}

// runEvents is Run's scheduler while the tier-2 engine is on. Each turn of
// the loop picks the next scheduling point (the earliest ready CPU), checks
// the budget and cancellation edges there, and makes one pass over the CPUs
// in ID order, stepping the ready ones and folding everyone's readyAt into
// the next point. A pass that changes a CPU it already visited (a wake,
// violation, kill or slave deploy sets m.resched) rescans instead.
func (m *Machine) runEvents(maxCycles int64) {
	m.budget = maxCycles
	next, active, solo := m.scanRunnable()
	for !m.halted {
		m.actor = -1
		if active == 0 {
			m.fail(fmt.Errorf("%w at cycle %d", ErrNoRunnableCPU, m.Clock))
			return
		}
		if m.nsleep > 0 {
			// A waiting CPU polls every cycle under the reference
			// scheduler, so the clock must not pass either edge.
			if maxCycles < math.MaxInt64 && maxCycles+1 < next {
				next = maxCycles + 1
			}
			if m.ctxDone != nil && m.nextCtxCheck < next {
				next = m.nextCtxCheck
			}
		}
		if next > m.Clock {
			m.Clock = next
		}
		if m.Clock > maxCycles {
			m.fail(fmt.Errorf("%w: budget %d, clock %d", ErrCycleBudgetExceeded, maxCycles, m.Clock))
			return
		}
		if m.ctxDone != nil && m.Clock >= m.nextCtxCheck && m.pollCancel() {
			return
		}
		if active == 1 && solo.state == stateRunning && !m.TLS.Active() {
			// Serial phase: the block engine owns it until something
			// demotes it (see tier2.go).
			m.runTier2(solo, maxCycles)
			next, active, solo = m.scanRunnable()
			continue
		}
		m.resched = false
		next, active = math.MaxInt64, 0
		for _, c := range m.CPUs {
			if m.halted {
				return
			}
			if c.state == stateIdle || c.state == stateHalted {
				continue
			}
			if !c.asleep && c.readyAt <= m.Clock {
				m.actor = c.ID
				m.stepEvent(c)
				if c.state == stateIdle || c.state == stateHalted {
					continue
				}
			}
			active++
			solo = c
			if !c.asleep && c.readyAt < next {
				next = c.readyAt
			}
		}
		if m.resched {
			next, active, solo = m.scanRunnable()
		}
	}
}

// scanRunnable returns the earliest readyAt of the awake CPUs, the number of
// CPUs with a thread (sleepers included) and the last of them.
func (m *Machine) scanRunnable() (next int64, active int, solo *CPU) {
	next = math.MaxInt64
	for _, c := range m.CPUs {
		if c.state == stateIdle || c.state == stateHalted {
			continue
		}
		active++
		solo = c
		if !c.asleep && c.readyAt < next {
			next = c.readyAt
		}
	}
	return next, active, solo
}

// stepEvent lands c's finished stretch, takes one step (on the
// instruction's tier-2 handler when stepSingle can, else the reference
// step), and then runs c ahead through the register-only instructions that
// follow.
func (m *Machine) stepEvent(c *CPU) {
	if c.sx.n != 0 {
		m.landStretch(c)
	}
	if c.state != stateRunning || !m.TLS.Active() || !m.stepSingle(c) {
		m.step(c)
	}
	if c.state == stateRunning && !m.halted && !c.overflowPending && m.TLS.Active() {
		m.runStretch(c)
	}
}

// stepSingle runs the instruction at c's pc on its tier-2 handler, with
// exec's accounting, when its stretch block is a single op (see
// t2block.single). It reports false, leaving the instruction to exec, for
// any other instruction and when the handler diverts before a side effect.
func (m *Machine) stepSingle(c *CPU) bool {
	b := m.t2.lookupSpec(m, c)
	if b == nil || !b.single {
		return false
	}
	o := &b.ops[0]
	n := o.fn(m, c, o)
	if n == t2DivertBounds {
		// The length load has happened: take the trap in place, as exec
		// does after it.
		m.Instructions++
		m.trap(c, isa.ExArrayBounds, 0)
		return true
	}
	if n < 0 {
		return false
	}
	m.Instructions++
	c.PC++
	c.readyAt = m.Clock + n
	m.TLS.ChargeAttempt(c.ID, tls.ChargeRun, n)
	if c.overflowPending {
		m.overflowed(c)
	}
	return true
}

// runStretch runs c through the register-only instructions that issue from
// c.readyAt on, and makes c ready when the first one it did not run issues.
// It stops before an instruction that reaches outside the CPU, one whose trap
// would fire (the handler reports it before any side effect, and exec takes
// it on its own cycle), one that could issue past the cycle budget or at or
// after the next cancellation poll, and after stretchCap instructions.
func (m *Machine) runStretch(c *CPU) {
	limit := m.budget
	if m.ctxDone != nil && m.nextCtxCheck <= limit {
		limit = m.nextCtxCheck - 1
	}
	clk := c.readyAt
	if clk > limit {
		return
	}
	t := m.t2
	b := t.lookupSpec(m, c)
	if b == nil || b.ops == nil || b.single {
		return
	}
	sx := &c.sx
	sx.saved = 0
	sx.pc = c.PC
	sx.start = clk
	var n int64
run:
	for {
		for w := b.wmask &^ sx.saved; w != 0; w &= w - 1 {
			r := mbits.TrailingZeros32(w)
			sx.regs[r] = c.Regs[r]
		}
		sx.saved |= b.wmask
		// A register-only op costs its static cycles, so when the block's
		// last instruction issues by limit, no op needs its own check.
		whole := clk+b.static-1 <= limit
		ops := b.ops
		for i := range ops {
			o := &ops[i]
			if !whole && clk+o.cost-1 > limit {
				c.PC = int(o.pc)
				break run
			}
			k := o.fn(m, c, o)
			if k < 0 {
				c.PC = int(o.pc)
				break run
			}
			clk += k
			n += int64(o.n)
		}
		if b.endPC >= 0 {
			c.PC = int(b.endPC)
		}
		if n >= stretchCap {
			break
		}
		pc := int32(c.PC)
		var nb *t2block
		switch pc {
		case b.succPC[0]:
			nb = b.succ[0]
		case b.succPC[1]:
			nb = b.succ[1]
		default:
			nb = t.lookupSpec(m, c)
			if nb == nil {
				break run
			}
			if b.succPC[0] < 0 {
				b.succPC[0], b.succ[0] = pc, nb
			} else if b.succPC[1] < 0 {
				b.succPC[1], b.succ[1] = pc, nb
			}
		}
		if nb.ops == nil || nb.single {
			break
		}
		b = nb
	}
	if n == 0 {
		return
	}
	sx.n, sx.cyc = n, clk-sx.start
	c.readyAt = clk
	m.Tier.SpecStretches++
}

// landStretch books a stretch the clock has passed: its instructions and
// run cycles.
func (m *Machine) landStretch(c *CPU) {
	sx := &c.sx
	m.Instructions += sx.n
	m.Tier.SpecStretchInstrs += sx.n
	m.TLS.ChargeAttempt(c.ID, tls.ChargeRun, sx.cyc)
	sx.n = 0
}

// settleCPU is the tls unit's pre-flush hook. The flush of the stepping
// CPU's own attempt (a commit) needs nothing: stepEvent landed its stretch
// and it is awake.
func (m *Machine) settleCPU(cpu int) {
	if cpu != m.actor {
		m.settle(m.CPUs[cpu])
	}
}

// settleAll settles every CPU; Run calls it on the way out.
func (m *Machine) settleAll() {
	for _, c := range m.CPUs {
		if c.sx.n != 0 || c.asleep {
			m.settle(c)
		}
	}
}

// settle brings c's lazily kept state up to the current event: cycle
// m.Clock, in the step of CPU m.actor (-1 between steps). The reference
// scheduler steps CPUs in ID order, so an instruction or poll of c issuing
// on the event's cycle has happened iff c.ID < m.actor. A sleeping CPU is
// charged the polls it would have made and woken; a stretch is landed up to
// the event, and when the event cuts it short, c's registers, pc and
// readyAt are rewound to the stretch's start and the instructions that
// issued before the event re-run. settle also marks the pass for a rescan,
// since the caller goes on to change c's schedule.
func (m *Machine) settle(c *CPU) {
	m.resched = true
	now := m.Clock
	before := c.ID < m.actor
	if sx := &c.sx; sx.n != 0 {
		if sx.start+sx.cyc <= now {
			m.landStretch(c)
		} else {
			for w := sx.saved; w != 0; w &= w - 1 {
				r := mbits.TrailingZeros32(w)
				c.Regs[r] = sx.regs[r]
			}
			c.PC = sx.pc
			code := m.Image.Method(c.MethodID).Code
			o := &m.rewindOp
			t := sx.start
			var k int64
			for k < sx.n && (t < now || t == now && before) {
				in := &code[c.PC]
				*o = t2Single(in, c.PC)
				t += o.fn(m, c, o)
				k++
				if !in.Op.IsBranch() && in.Op != isa.J {
					c.PC++
				}
			}
			if k < sx.n {
				m.Tier.SpecRewinds++
			}
			sx.n, sx.cyc = k, t-sx.start
			c.readyAt = t
			if k > 0 {
				m.landStretch(c)
			}
			sx.n = 0
		}
	}
	if c.asleep {
		// readyAt is the first cycle the sleeper has not been charged for.
		polls := now - c.readyAt
		if before {
			polls++
		}
		if polls > 0 {
			m.TLS.ChargeAttempt(c.ID, c.sleepKind, polls)
			c.readyAt += polls
		}
		c.asleep = false
		m.nsleep--
	}
}

// wakeHead wakes the sleeping CPU a commit has just made the head. Headship
// moves to a waiting CPU only at a commit; every other head change kills
// the waiters, which wakes them through the flush hook.
func (m *Machine) wakeHead() {
	for _, c := range m.CPUs {
		if c.asleep && m.TLS.IsHead(c.ID) {
			m.settle(c)
			return
		}
	}
}
