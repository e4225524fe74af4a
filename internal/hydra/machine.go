package hydra

import (
	"context"
	"fmt"
	"math"

	"jrpm/internal/faultinject"
	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
)

// cpuState is the scheduling state of one core.
type cpuState int

const (
	stateIdle cpuState = iota
	stateRunning
	stateWaitEOI       // at STL_EOI, waiting to become head to commit
	stateWaitShutdown  // at STL_SHUTDOWN, waiting to become head
	stateWaitOverflow  // speculative buffer overflow, waiting to become head
	stateWaitException // speculative exception deferred until head (§5.1)
	stateWaitIO        // system call deferred until head
	stateWaitGC        // allocation failed; GC must run at head
	stateWaitSwitchIn  // multilevel switch into inner STL (§4.2.6)
	stateWaitSwitchOut // multilevel switch back to outer STL
	stateHalted
)

// frame is one call-stack entry (return linkage kept machine-side; frame
// data itself lives in simulated memory addressed off $fp).
type frame struct {
	retMethod int
	retPC     int
	savedFP   int64
	savedSP   int64
}

// snapshot is the context restored when a speculative thread restarts.
type snapshot struct {
	depth  int
	sp, fp int64
}

// CPU is one single-issue core.
type CPU struct {
	ID       int
	Regs     [isa.NumRegs]int64
	PC       int
	MethodID int

	frames  []frame
	state   cpuState
	readyAt int64
	snap    snapshot

	pendingExKind   int64
	pendingExRef    int64
	pendingFault    *MemFault // deferred speculative out-of-range access
	pendingIO       int64
	overflowPending bool
	gcAttempts      int // consecutive collections for the same allocation

	extra int64 // memory/runtime cycles accumulated by the current instruction
}

// exKindMemFault is the pendingExKind sentinel for a deferred out-of-range
// access: real isa exception kinds are non-negative.
const exKindMemFault = -1

// Options configures a Machine.
type Options struct {
	NCPU     int
	Handlers tls.HandlerCosts
	TLS      *tls.Config
	Cache    *mem.CacheConfig
	Profile  bool // attach the TEST tracer and honour annotations
	Tracer   *tracer.Config

	// Faults enables deterministic fault injection (nil = none). A zero
	// plan installs the hooks but never fires, leaving cycle counts
	// identical to a machine with no plan at all.
	Faults *faultinject.Plan

	// Guard enables the STL violation-storm guard (nil = disabled): a
	// thrashing STL is decertified after K bad windows and falls back to
	// sequential (solo) execution, re-probing with exponential backoff.
	Guard *tls.GuardConfig

	// StormLimit caps violations between two commits before the machine
	// fails with ErrSpecViolationStorm (0 = default 1<<20). It is the hard
	// backstop below the cycle budget when the guard is disabled.
	StormLimit int64

	// Recorder receives cycle-stamped speculation events (the flight
	// recorder). nil disables recording; the disabled path is one predicted
	// branch per site — no allocation, no timing change, bit-identical
	// cycle counts. Must be a nil interface to disable, not a typed nil.
	Recorder obs.Recorder

	// Ledger attaches the speculation doctor's per-loop cycle-conservation
	// ledger (nil disables). Like the recorder it is pure observation: one
	// predicted nil-check per hook site, no allocation, no timing change,
	// bit-identical cycle counts whether attached or not. Unlike the
	// recorder it does NOT demote the tier-2 block engine — the ledger's
	// charges mirror the same batched accounting the engine already feeds
	// the tls unit.
	Ledger *obs.Ledger

	// Tier2Off disables the tier-2 block engine, forcing every instruction
	// through the cycle-accurate interpreter. The engine changes host ns/op
	// only — cycles, traces, and outputs are bit-identical either way — so
	// the zero value (enabled) is right for everything except equivalence
	// testing and benchmarking the interpreter itself. The engine also
	// self-disables while a Recorder or fault Plan is attached, since both
	// observe or perturb per-instruction events.
	Tier2Off bool

	// Checkpoint, when non-nil, lets another goroutine request safepoint
	// snapshots from the running machine (see Checkpointer). Disabled the
	// latch costs one nil compare per safepoint edge; cycle counts are
	// bit-identical whether attached or not, armed or not.
	Checkpoint *Checkpointer

	// Ctx, when non-nil, bounds the run in wall-clock terms: Run polls
	// ctx.Done() once every CancelCheckStride simulated cycles (amortized
	// to a couple of integer compares per scheduler step, so cycle counts
	// stay bit-identical and the hot path stays allocation-free) and fails
	// with ErrCancelled wrapping the context's cause. nil means the run is
	// uninterruptible, as before.
	Ctx context.Context
}

// defaultStormLimit bounds restarts-without-commit; generous enough that
// no real decomposition approaches it.
const defaultStormLimit = 1 << 20

// CancelCheckStride is how many simulated cycles may elapse between polls
// of the run context's Done channel. At typical host simulation rates
// (tens of millions of simulated cycles per second) a 64Ki-cycle stride
// bounds cancellation latency well under 100 ms of wall clock while
// keeping the per-step cost to two integer compares.
const CancelCheckStride = 1 << 16

// DefaultOptions returns the paper's 4-CPU Hydra with new handlers.
func DefaultOptions() Options {
	return Options{NCPU: 4, Handlers: tls.NewHandlers}
}

// Machine is the simulated Hydra CMP.
type Machine struct {
	Image   *Image
	Mem     *mem.Memory
	Caches  *mem.CacheSim
	TLS     *tls.Unit
	Tracer  *tracer.Tracer
	Runtime Runtime
	CPUs    []*CPU

	Clock        int64
	Master       int
	Output       []int64
	GCCycles     int64
	Instructions int64
	GCRuns       int64
	// OverflowBySTL counts speculative buffer overflow stalls per loop
	// (keyed by cfg global loop id), the feedback signal for the adaptive
	// reprofiling the paper sketches in §6.2.
	OverflowBySTL map[int64]int64

	halted bool
	err    error
	booted bool // Boot ran or a snapshot was restored; Run must not re-Boot

	// hw is the recycled hardware behind Mem, Caches, TLS, the tracer's
	// slabs and t2; Release returns it to the free list.
	hw *hardware

	inj        *faultinject.Injector
	Guard      *tls.Guard
	stormLimit int64
	stormCount int64 // violations since the last commit (storm backstop)

	rec obs.Recorder
	led *obs.Ledger
	// Configured latencies, cached so the recorder can classify a load's
	// memory level from its charged latency without touching CacheSim.
	latL2, latMem, latInter int64

	// Tier-2 block engine state: t2 is nil when the engine is disabled
	// (Options.Tier2Off, or a recorder/fault plan is attached). latMax is
	// the slowest configured memory latency, for worst-case block spans.
	// t2sub/t2cyc are the divert scratch registers (see runBlock). Tier
	// counts engine activity for metrics.
	t2     *tier2
	latMax int64
	t2sub  int32
	t2cyc  int64
	Tier   TierStats

	// Cancellation state: ctxDone is nil when no context is attached (the
	// hot-path check then short-circuits on one nil compare). nextCtxCheck
	// is the simulated cycle of the next Done poll.
	ctx          context.Context
	ctxDone      <-chan struct{}
	nextCtxCheck int64

	// Checkpoint latch: ckpt is nil when checkpointing is disabled (the
	// fast-loop check then short-circuits on one nil compare). ckptNext is
	// the simulated cycle of the next armed-flag poll. t2resume/t2resumeLast
	// carry a restored snapshot's tier-2 re-entry state into the first
	// runTier2 call (see Restore).
	ckpt         *Checkpointer
	ckptNext     int64
	ckptStride   int64
	t2resume     bool
	t2resumeLast *t2block

	curSTL        *STLDesc
	outerSTL      *STLDesc
	outerResume   int64
	stlFrameDepth int
	lastHoisted   int64 // last hoisted STL id, for repeat-entry savings
}

// NewMachine builds a machine for img with the given runtime services.
func NewMachine(img *Image, rt Runtime, opts Options) *Machine {
	if opts.NCPU == 0 {
		opts.NCPU = 4
	}
	if opts.Handlers == (tls.HandlerCosts{}) {
		opts.Handlers = tls.NewHandlers
	}
	cacheCfg := mem.DefaultCacheConfig(opts.NCPU)
	if opts.Cache != nil {
		cacheCfg = *opts.Cache
	}
	tlsCfg := tls.DefaultConfig(opts.NCPU)
	tlsCfg.Handlers = opts.Handlers
	if opts.TLS != nil {
		tlsCfg = *opts.TLS
		tlsCfg.NCPU = opts.NCPU
	}
	hw := acquireHardware(cacheCfg, tlsCfg, opts.Profile)
	m := &Machine{
		Image:         img,
		Mem:           hw.mem,
		Caches:        hw.caches,
		TLS:           hw.tls,
		Runtime:       rt,
		OverflowBySTL: map[int64]int64{},
		hw:            hw,
		rec:           opts.Recorder,
		latL2:         cacheCfg.LatL2,
		latMem:        cacheCfg.LatMem,
		latInter:      cacheCfg.LatInter,
	}
	m.latMax = cacheCfg.LatL1
	for _, lat := range []int64{cacheCfg.LatL2, cacheCfg.LatMem, cacheCfg.LatInter} {
		if lat > m.latMax {
			m.latMax = lat
		}
	}
	if !opts.Tier2Off && opts.Recorder == nil && opts.Faults == nil {
		m.t2 = hw.t2
	}
	if opts.Ledger != nil {
		m.led = opts.Ledger
		m.led.SetSymbolizer(m.symbolizeAddr)
		m.TLS.SetLedger(m.led)
	}
	if opts.Faults != nil {
		m.inj = faultinject.New(*opts.Faults)
	}
	m.TLS.SetInjector(m.inj)
	if opts.Guard != nil {
		m.Guard = tls.NewGuard(*opts.Guard)
	}
	m.stormLimit = opts.StormLimit
	if m.stormLimit <= 0 {
		m.stormLimit = defaultStormLimit
	}
	if opts.Ctx != nil {
		m.ctx = opts.Ctx
		m.ctxDone = opts.Ctx.Done() // nil for Background: no polling
		m.nextCtxCheck = CancelCheckStride
	}
	if opts.Checkpoint != nil {
		m.ckpt = opts.Checkpoint
		m.ckptStride = opts.Checkpoint.Stride
		if m.ckptStride <= 0 {
			m.ckptStride = CancelCheckStride
		}
		m.ckptNext = m.ckptStride
	}
	if opts.Profile {
		tcfg := tracer.DefaultConfig()
		if opts.Tracer != nil {
			tcfg = *opts.Tracer
		}
		tcfg.StoreBufferLines = tlsCfg.StoreBufferLines
		tcfg.LoadBufferLines = tlsCfg.LoadBufferLines
		tcfg.MemWords = MemWords
		m.Tracer = tracer.NewOn(tcfg, hw.slabs)
		hw.slabs = nil
	}
	for i := 0; i < opts.NCPU; i++ {
		m.CPUs = append(m.CPUs, &CPU{ID: i, state: stateIdle})
	}
	return m
}

// Release returns the machine's hardware — simulated memory, cache tags,
// speculation buffers, tracer slabs and tier-2 block cache — to the free
// list for the next machine of its geometry (see hardware.go). Results
// already extracted (cycle counts, outputs, tracer loop statistics) stay
// valid; the machine itself must not run or be read afterwards. Releasing
// twice is a no-op.
func (m *Machine) Release() {
	hw := m.hw
	if hw == nil {
		return
	}
	if m.Tracer != nil {
		hw.slabs = m.Tracer.Release()
	}
	m.hw, m.Mem, m.Caches, m.TLS, m.t2 = nil, nil, nil, nil, nil
	releaseHardware(hw)
}

// Boot prepares CPU 0 at the program entry point.
func (m *Machine) Boot() {
	m.booted = true
	main := m.Image.Method(m.Image.Main)
	c := m.CPUs[0]
	c.MethodID = m.Image.Main
	c.PC = 0
	c.Regs[isa.GP] = int64(GlobalBase)
	c.Regs[isa.SP] = int64(StackTop) - main.FrameWords
	c.Regs[isa.FP] = c.Regs[isa.SP]
	c.state = stateRunning
	m.Master = 0
}

// Err returns the terminal error, if any (uncaught exception, cycle budget).
func (m *Machine) Err() error { return m.err }

// pollCancel performs one Done poll and reschedules the next check. Callers
// gate on (ctxDone != nil && Clock >= nextCtxCheck) so the common path never
// reaches the select. Returns true when the run must stop.
func (m *Machine) pollCancel() bool {
	m.nextCtxCheck = m.Clock + CancelCheckStride
	select {
	case <-m.ctxDone:
		m.fail(fmt.Errorf("%w at cycle %d: %w", ErrCancelled, m.Clock, context.Cause(m.ctx)))
		return true
	default:
		return false
	}
}

// Injector returns the attached fault injector (nil when no plan is set).
func (m *Machine) Injector() *faultinject.Injector { return m.inj }

// Run executes until the program halts or maxCycles elapse. All abnormal
// terminations surface as typed errors (see errors.go); a panic escaping the
// simulator core is itself a bug, but the recover backstop converts it to
// ErrInternal rather than crash the embedding process.
func (m *Machine) Run(maxCycles int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(*mem.Fault); ok {
				m.fail(fmt.Errorf("%w: unguarded memory access: %v", ErrInternal, f))
			} else {
				m.fail(fmt.Errorf("%w: panic: %v", ErrInternal, r))
			}
			err = m.err
		}
	}()
	// After a snapshot restore the running CPU need not be CPU 0 (any core
	// can be master after an STL shutdown), so auto-boot keys on the
	// explicit flag, not on CPU 0's state.
	if !m.booted && !m.halted {
		m.Boot()
	}
	for !m.halted {
		next := int64(math.MaxInt64)
		active := 0
		var solo *CPU
		for _, c := range m.CPUs {
			if c.state == stateIdle || c.state == stateHalted {
				continue
			}
			active++
			solo = c
			if c.readyAt < next {
				next = c.readyAt
			}
		}
		if active == 0 {
			m.fail(fmt.Errorf("%w at cycle %d", ErrNoRunnableCPU, m.Clock))
			return m.err
		}
		if next > m.Clock {
			m.Clock = next
		}
		if m.Clock > maxCycles {
			m.fail(fmt.Errorf("%w: budget %d, clock %d", ErrCycleBudgetExceeded, maxCycles, m.Clock))
			return m.err
		}
		if m.ctxDone != nil && m.Clock >= m.nextCtxCheck && m.pollCancel() {
			return m.err
		}
		// Serial-phase fast loop: with a single runnable CPU and speculation
		// off, instructions dispatch back-to-back without rescanning the CPU
		// list each cycle. Anything that can wake a second CPU (STL startup)
		// flips TLS.Active and falls back to the general scheduler; clock
		// advance and budget semantics are identical to the outer loop.
		if active == 1 && solo.state == stateRunning && !m.TLS.Active() {
			if m.t2 != nil {
				// Tier-2 promotion: the block engine owns the serial phase
				// until something demotes it (see tier2.go). Budget and
				// cancellation failures halt the machine from inside.
				m.runTier2(solo, maxCycles)
				continue
			}
			c := solo
			for !m.halted && c.state == stateRunning && !m.TLS.Active() {
				if c.readyAt > m.Clock {
					m.Clock = c.readyAt
				}
				if m.Clock > maxCycles {
					m.fail(fmt.Errorf("%w: budget %d, clock %d", ErrCycleBudgetExceeded, maxCycles, m.Clock))
					return m.err
				}
				if m.ctxDone != nil && m.Clock >= m.nextCtxCheck && m.pollCancel() {
					return m.err
				}
				if m.ckpt != nil && m.Clock >= m.ckptNext {
					m.checkpointNow(false, nil)
				}
				m.exec(c)
			}
			continue
		}
		for _, c := range m.CPUs {
			if m.halted {
				break
			}
			if c.readyAt <= m.Clock {
				m.step(c)
			}
		}
	}
	return m.err
}

// step advances one CPU according to its state.
func (m *Machine) step(c *CPU) {
	switch c.state {
	case stateRunning:
		m.exec(c)
	case stateWaitEOI:
		if m.TLS.IsHead(c.ID) {
			m.commitEOI(c)
		} else {
			m.wait(c)
		}
	case stateWaitShutdown:
		if m.TLS.IsHead(c.ID) {
			m.doShutdown(c)
		} else {
			m.wait(c)
		}
	case stateWaitOverflow:
		if m.TLS.IsHead(c.ID) {
			newEpisode, err := m.TLS.DrainOverflow(c.ID)
			if err != nil {
				m.fail(err)
				return
			}
			m.noteOverflow(newEpisode)
			c.overflowPending = false
			c.state = stateRunning
			c.readyAt = m.Clock + 1
			if m.led != nil {
				m.led.SpanDrain(c.ID, m.Clock, c.readyAt)
			}
			if m.rec != nil {
				m.record(obs.EvOverflowDrain, c.ID, m.TLS.Iteration(c.ID), m.stlLoopID())
			}
		} else {
			m.waitAs(c, tls.ChargeWaitOverflow)
		}
	case stateWaitException:
		if m.TLS.IsHead(c.ID) {
			if c.pendingExKind == exKindMemFault {
				// The wild access reached architectural execution: it is a
				// genuine program fault, not a wrong-path artifact.
				m.fail(c.pendingFault)
				return
			}
			kind, ref := c.pendingExKind, c.pendingExRef
			c.pendingExKind, c.pendingExRef = 0, 0
			c.state = stateRunning
			m.dispatchException(c, kind, ref)
		} else {
			m.wait(c)
		}
	case stateWaitIO:
		if m.TLS.IsHead(c.ID) {
			m.Output = append(m.Output, c.pendingIO)
			c.PC++
			c.state = stateRunning
			c.readyAt = m.Clock + isa.Cost(isa.IOPUT)
			if m.led != nil {
				m.led.SpanIO(c.ID, m.Clock, c.readyAt)
			}
		} else {
			m.wait(c)
		}
	case stateWaitGC:
		if m.TLS.IsHead(c.ID) {
			m.quiesceForGC(c)
			m.Runtime.CollectGarbage(m, c.ID)
			m.GCRuns++
			if m.rec != nil {
				m.record(obs.EvGC, c.ID, m.GCRuns, 0)
			}
			c.state = stateRunning // PC unchanged: the alloc re-executes
			c.readyAt = m.Clock + 1 + c.extra
			c.extra = 0
			if m.led != nil {
				m.led.SpanGC(c.ID, m.Clock, c.readyAt)
			}
		} else {
			m.wait(c)
		}
	case stateWaitSwitchIn:
		if m.TLS.IsHead(c.ID) {
			m.doSwitchIn(c)
		} else {
			m.wait(c)
		}
	case stateWaitSwitchOut:
		if m.TLS.IsHead(c.ID) {
			m.doSwitchOut(c)
		} else {
			m.wait(c)
		}
	}
}

// commitEOI commits the head's iteration at STL_EOI and routes the CPU to
// its next iteration. The guard's decertify check runs before the commit:
// demotion pins the next spawned iteration to iter+1, which CommitEOI then
// hands to this CPU. In solo (sequential-fallback) mode the CPU re-enters
// the loop through STL_INIT, which re-derives all register state from the
// frame home slots and the hardware iteration register, so no speculative
// sibling context is needed.
func (m *Machine) commitEOI(c *CPU) {
	loopID := int64(-1)
	if m.curSTL != nil {
		loopID = m.curSTL.LoopID
	}
	if m.Guard != nil && loopID >= 0 && !m.TLS.Solo() && m.Guard.Decertified(loopID) {
		killed, err := m.TLS.DemoteSolo(c.ID)
		if err != nil {
			m.fail(err)
			return
		}
		for _, k := range killed {
			m.CPUs[k].state = stateIdle
			m.CPUs[k].overflowPending = false
		}
		if m.rec != nil {
			m.record(obs.EvGuardDemote, c.ID, loopID, 0)
			for _, k := range killed {
				m.record(obs.EvKill, k, loopID, 0)
			}
		}
		// The killed attempts flushed as violated under the old mode (they
		// were speculative work); only cycles from here on are solo.
		if m.led != nil {
			m.led.SetMode(obs.LoopSolo)
		}
	}
	iter := m.TLS.Iteration(c.ID)
	if err := m.TLS.CommitEOI(c.ID); err != nil {
		m.fail(err)
		return
	}
	if m.rec != nil {
		m.record(obs.EvCommit, c.ID, iter, loopID)
		m.record(obs.EvHandlerEOI, c.ID, m.TLS.Config().Handlers.EOI, loopID)
		m.record(obs.EvThreadSpawn, c.ID, m.TLS.Iteration(c.ID), loopID)
	}
	m.stormCount = 0
	// Solo commits are sequential execution, not evidence of speculative
	// health — feeding them to the guard would re-certify a thrashing loop
	// the moment it was demoted.
	if m.Guard != nil && loopID >= 0 && !m.TLS.Solo() {
		m.Guard.OnCommit(loopID)
	}
	if m.TLS.Solo() {
		c.MethodID = m.curSTL.Method
		c.PC = m.curSTL.InitPC
	} else {
		c.PC++
	}
	c.state = stateRunning
	c.readyAt = m.Clock + m.TLS.Config().Handlers.EOI
}

// noteOverflow attributes an overflow stall episode to the active STL's
// loop. Repeated drains within one episode arrive with newEpisode false and
// are not re-counted.
func (m *Machine) noteOverflow(newEpisode bool) {
	if !newEpisode || m.curSTL == nil {
		return
	}
	m.OverflowBySTL[m.curSTL.LoopID]++
	if m.Guard != nil {
		m.Guard.OnOverflow(m.curSTL.LoopID)
	}
}

// guardOnExit informs the guard that the active STL is shutting down (so a
// partial probe window is judged).
func (m *Machine) guardOnExit() {
	if m.Guard != nil && m.curSTL != nil {
		m.Guard.OnExit(m.curSTL.LoopID)
	}
}

// dataFaultAt routes an out-of-range data access. A speculative non-head
// thread parks it like a deferred exception (§5.1): the wild address may be
// the product of a wrong-path value an older thread's store will soon
// squash. An access that reaches architectural execution is a genuine
// program fault and halts the machine with a typed MemFault. The
// interpreter's own loads and stores reach it through an explicit bounds
// check, so the common wrong-path wild access never builds a panic frame;
// guardRuntime brings the VM runtime's faults here too.
func (m *Machine) dataFaultAt(c *CPU, a mem.Addr, write bool) {
	mf := &MemFault{
		CPU: c.ID, Cycle: m.Clock, Addr: a, Write: write,
		Method: m.Image.Method(c.MethodID).Name, PC: c.PC,
	}
	c.extra = 0
	if m.TLS.Active() && !m.TLS.IsHead(c.ID) {
		c.pendingFault = mf
		c.pendingExKind = exKindMemFault
		c.state = stateWaitException
		m.recWait(c, obs.WaitException)
		m.wait(c)
		return
	}
	m.fail(mf)
}

// guardRuntime runs call, which enters the VM runtime on c's behalf. The
// runtime reaches memory through RuntimeLoad/RuntimeStore and
// RawRead/RawWrite, where an out-of-range address panics with a *mem.Fault
// from the memory model. guardRuntime recovers that fault into dataFaultAt
// and reports true; the caller then abandons the instruction, so the fault
// unwinds from the same point as a wild load or store. Any other panic is a
// simulator bug and goes on to Run's backstop. Only instructions that call
// the runtime pay for the recover.
func (m *Machine) guardRuntime(c *CPU, call func()) (faulted bool) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*mem.Fault)
			if !ok {
				panic(r)
			}
			m.dataFaultAt(c, f.Addr, f.Write)
			faulted = true
		}
	}()
	call()
	return false
}

// wildLoad handles a bounds-checked faulting load. The hardware load buffer
// latches the exposed read before the bus access resolves, so the tracking
// side effect happens even though no data transfers (matching what Unit.Load
// did before it faulted).
func (m *Machine) wildLoad(c *CPU, a mem.Addr, noViolate bool) {
	if m.TLS.Active() && !noViolate {
		m.TLS.TrackRead(c.ID, a)
	}
	m.dataFaultAt(c, a, false)
}

// wait charges one cycle of head-wait time and re-polls next cycle.
func (m *Machine) wait(c *CPU) { m.waitAs(c, tls.ChargeWait) }

// waitAs is wait with an explicit charge kind, so overflow-stall parking is
// distinguishable from ordinary commit waiting in the doctor's ledger (both
// land in the same StateStats wait counter).
func (m *Machine) waitAs(c *CPU, kind tls.ChargeKind) {
	if m.led == nil {
		m.TLS.ChargeAttempt(c.ID, kind, 1)
	} else {
		m.TLS.ChargeAttemptDiag(c.ID, kind, 1)
	}
	c.readyAt = m.Clock + 1
}

// record emits one flight-recorder event. Callers must have checked
// m.rec != nil so the disabled path never builds the event value.
func (m *Machine) record(kind obs.EventKind, cpu int, arg, aux int64) {
	m.rec.Record(obs.Event{Cycle: m.Clock, Kind: kind, CPU: int32(cpu), Arg: arg, Aux: aux})
}

// stlLoopID is the active STL's loop id for event payloads (-1 outside STLs).
func (m *Machine) stlLoopID() int64 {
	if m.curSTL == nil {
		return -1
	}
	return m.curSTL.LoopID
}

// recWait records c parking in a head-wait state. Recorded once at the
// transition, not per polled wait cycle.
func (m *Machine) recWait(c *CPU, reason int64) {
	if m.rec != nil {
		m.record(obs.EvThreadWait, c.ID, reason, m.stlLoopID())
	}
}

// recordMemLat classifies a load's charged latency into a cache-level event.
// Latency is a faithful fingerprint of the level because the configured
// levels are distinct by construction (L1 hit / L2 hit / interprocessor
// forward / memory).
func (m *Machine) recordMemLat(c *CPU, a mem.Addr, lat int64) {
	switch lat {
	case m.latL2:
		m.record(obs.EvL1Miss, c.ID, int64(a), 0)
	case m.latMem:
		m.record(obs.EvL2Miss, c.ID, int64(a), 0)
	case m.latInter:
		m.record(obs.EvBusTransfer, c.ID, int64(a), 0)
	}
}

// loadWord performs a data load, speculative or not, charging latency into
// the current instruction and informing the profiler.
func (m *Machine) loadWord(c *CPU, a mem.Addr, noViolate bool, cls AddrClass) int64 {
	if m.TLS.Active() {
		v, lat := m.TLS.Load(c.ID, a, noViolate)
		c.extra += lat
		if m.rec != nil {
			m.recordMemLat(c, a, lat)
		}
		if !noViolate && m.TLS.LoadOverflow(c.ID) {
			c.overflowPending = true
		}
		return v
	}
	v := m.Mem.Read(a)
	lat := m.Caches.Load(c.ID, a)
	c.extra += lat
	if m.rec != nil {
		m.recordMemLat(c, a, lat)
	}
	if m.Tracer != nil {
		if cls == ClassHeap && a >= StackRegionBase {
			cls = ClassStack
		}
		m.Tracer.OnLoad(a, m.Clock, cls)
	}
	return v
}

// storeWord performs a data store; speculative stores may violate younger
// threads, which are redirected to the STL restart point. Out-of-range
// addresses must be rejected before buffering — a buffered wild store would
// only fault at drain time, after the commit partially applied.
func (m *Machine) storeWord(c *CPU, a mem.Addr, v int64, cls AddrClass) {
	if m.TLS.Active() {
		if !m.Mem.InRange(a) {
			panic(&mem.Fault{Addr: a, Size: 1, Write: true})
		}
		lat, violated, err := m.TLS.Store(c.ID, a, v)
		if err != nil {
			m.fail(err)
			return
		}
		c.extra += lat
		for _, vc := range violated {
			if m.rec != nil {
				m.record(obs.EvViolation, vc, int64(a), int64(c.ID))
			}
			m.redirectRestart(m.CPUs[vc])
		}
		if m.TLS.StoreOverflow(c.ID) {
			c.overflowPending = true
		}
		return
	}
	m.Mem.Write(a, v)
	c.extra += m.Caches.Store(c.ID, a)
	if m.Tracer != nil {
		if cls == ClassHeap && a >= StackRegionBase {
			cls = ClassStack
		}
		m.Tracer.OnStore(a, m.Clock, cls)
	}
}

// RuntimeLoad lets the VM runtime read memory on behalf of a CPU with an
// address-class tag; latency is charged to the CPU's current instruction.
func (m *Machine) RuntimeLoad(cpu int, a mem.Addr, cls AddrClass) int64 {
	return m.loadWord(m.CPUs[cpu], a, false, cls)
}

// RuntimeStore is the store counterpart of RuntimeLoad.
func (m *Machine) RuntimeStore(cpu int, a mem.Addr, v int64, cls AddrClass) {
	m.storeWord(m.CPUs[cpu], a, v, cls)
}

// RawRead reads memory without timing or speculation (GC heap walks, debug).
func (m *Machine) RawRead(a mem.Addr) int64 { return m.Mem.Read(a) }

// RawWrite writes memory without timing or speculation. Only safe outside
// speculative execution (the VM uses it during stop-the-world collection).
func (m *Machine) RawWrite(a mem.Addr, v int64) { m.Mem.Write(a, v) }

// ChargeGC charges collector cycles to the invoking CPU and to the GC
// accounting bucket (Figure 9).
func (m *Machine) ChargeGC(cpu int, cycles int64) {
	m.CPUs[cpu].extra += cycles
	m.GCCycles += cycles
}

// SpecActive reports whether thread speculation is running.
func (m *Machine) SpecActive() bool { return m.TLS.Active() }

// quiesceForGC makes memory consistent before a stop-the-world collection
// that must run while speculation is active: the head's partial buffer
// commits (its state is non-speculative) and every younger thread is
// discarded and sent back to the restart point. The collector then sees
// flat-memory truth with empty store buffers.
func (m *Machine) quiesceForGC(c *CPU) {
	if !m.TLS.Active() {
		return
	}
	if err := m.TLS.CommitPartial(c.ID); err != nil {
		m.fail(err)
		return
	}
	// These discards have no violating store address: attribute them to the
	// synthetic GC-quiesce site.
	if m.led != nil {
		m.led.BeginSyntheticViolation(obs.SiteGC)
	}
	for _, vc := range m.TLS.ViolateFrom(m.TLS.Iteration(c.ID) + 1) {
		if m.rec != nil {
			m.record(obs.EvViolation, vc, -2, int64(c.ID))
		}
		m.redirectRestart(m.CPUs[vc])
	}
	if m.led != nil {
		m.led.EndViolation()
	}
}

// redirectRestart sends a violated CPU back to the STL restart point: the
// call stack unwinds to the loop context and execution resumes at STL_INIT
// with the restart handler cost charged (the tls unit already flushed the
// discarded attempt and charged the handler to the new attempt).
func (m *Machine) redirectRestart(c *CPU) {
	if m.curSTL == nil {
		m.fail(fmt.Errorf("%w: violation with no active STL", ErrInternal))
		return
	}
	m.stormCount++
	if m.stormCount > m.stormLimit {
		m.fail(&tls.ViolationStormError{Restarts: m.stormCount, LoopID: m.curSTL.LoopID})
		return
	}
	if m.Guard != nil {
		m.Guard.OnViolation(m.curSTL.LoopID)
	}
	if len(c.frames) > c.snap.depth {
		c.frames = c.frames[:c.snap.depth]
	}
	c.Regs[isa.SP] = c.snap.sp
	c.Regs[isa.FP] = c.snap.fp
	c.MethodID = m.curSTL.Method
	c.PC = m.curSTL.InitPC
	c.state = stateRunning
	c.pendingExKind, c.pendingExRef = 0, 0
	c.pendingFault = nil
	c.overflowPending = false
	c.gcAttempts = 0
	c.extra = 0
	at := c.readyAt
	if at < m.Clock {
		at = m.Clock
	}
	c.readyAt = at + m.TLS.Config().Handlers.Restart
	if m.rec != nil {
		m.record(obs.EvHandlerRestart, c.ID, m.TLS.Config().Handlers.Restart, m.curSTL.LoopID)
		m.record(obs.EvRestart, c.ID, m.TLS.Iteration(c.ID), m.curSTL.LoopID)
	}
}

// doShutdown finalizes an STL: the exiting head commits, younger threads are
// killed, and the exiting CPU becomes the master continuing serial
// execution (its registers hold the architecturally correct loop-exit
// state, since it executed the final iteration).
func (m *Machine) doShutdown(c *CPU) {
	loopID := m.stlLoopID()
	killed, err := m.TLS.Shutdown(c.ID)
	if err != nil {
		m.fail(err)
		return
	}
	for _, k := range killed {
		m.CPUs[k].state = stateIdle
		m.CPUs[k].overflowPending = false
	}
	m.Master = c.ID
	shutdown := m.TLS.Config().Handlers.Shutdown
	if m.curSTL != nil && m.curSTL.Hoisted && shutdown > HoistShutdownSaving {
		// Hoisted STLs leave the slaves spun up for the next entry.
		shutdown -= HoistShutdownSaving
	}
	if m.rec != nil {
		for _, k := range killed {
			m.record(obs.EvKill, k, loopID, 0)
		}
		m.record(obs.EvHandlerShutdown, c.ID, shutdown, loopID)
		m.record(obs.EvSTLShutdown, c.ID, loopID, 0)
	}
	m.guardOnExit()
	m.stormCount = 0
	m.curSTL = nil
	m.outerSTL = nil
	c.overflowPending = false
	c.PC++
	c.state = stateRunning
	c.readyAt = m.Clock + shutdown
	if m.led != nil {
		m.led.SpanShutdown(c.ID, m.Clock, c.readyAt)
		m.led.EndSTL()
	}
}

// doSwitchIn performs the multilevel decomposition switch (§4.2.6): the
// head commits its partial outer iteration, younger outer threads are
// discarded, and all CPUs redeploy onto the inner STL.
func (m *Machine) doSwitchIn(c *CPU) {
	inner, ok := m.Image.STLs[m.pendingSwitchID(c)]
	if !ok {
		m.fail(m.badProgram(c, "multilevel switch into unknown STL %d", m.pendingSwitchID(c)))
		return
	}
	if err := m.TLS.CommitPartial(c.ID); err != nil {
		m.fail(err)
		return
	}
	m.TLS.KillYounger(c.ID)
	m.outerSTL = m.curSTL
	m.outerResume = m.TLS.Iteration(c.ID)
	m.curSTL = inner
	if err := m.TLS.SwitchSTL(inner.ID, c.ID, 0); err != nil {
		m.fail(err)
		return
	}
	if m.rec != nil {
		m.record(obs.EvSTLSwitch, c.ID, inner.LoopID, 0)
		m.record(obs.EvThreadSpawn, c.ID, m.TLS.Iteration(c.ID), inner.LoopID)
	}
	if m.led != nil {
		m.led.SwitchTo(inner.LoopID)
	}
	if !m.TLS.Solo() {
		m.deploySlaves(c, c.PC+1, SwitchStartupCost, true)
	}
	c.PC++
	c.state = stateRunning
	c.readyAt = m.Clock + SwitchStartupCost
	if m.led != nil {
		m.led.SpanSwitch(c.ID, m.Clock, c.readyAt)
	}
	m.snapshotAll()
}

// doSwitchOut restores the outer STL after the inner loop completes. The
// switching CPU resumes its partial outer iteration as the head; the other
// CPUs restart speculation at the outer STL_INIT with the following
// iteration indices.
func (m *Machine) doSwitchOut(c *CPU) {
	if m.outerSTL == nil {
		m.fail(m.badProgram(c, "multilevel switch out with no outer STL"))
		return
	}
	if err := m.TLS.CommitPartial(c.ID); err != nil {
		m.fail(err)
		return
	}
	m.TLS.KillYounger(c.ID)
	outer := m.outerSTL
	m.outerSTL = nil
	m.curSTL = outer
	if err := m.TLS.SwitchSTL(outer.ID, c.ID, m.outerResume); err != nil {
		m.fail(err)
		return
	}
	if m.rec != nil {
		m.record(obs.EvSTLSwitch, c.ID, outer.LoopID, 1)
		m.record(obs.EvThreadSpawn, c.ID, m.TLS.Iteration(c.ID), outer.LoopID)
	}
	if m.led != nil {
		m.led.SwitchTo(outer.LoopID)
	}
	if !m.TLS.Solo() {
		m.deploySlaves(c, outer.InitPC, SwitchShutdownCost, true)
	}
	c.PC++
	c.state = stateRunning
	c.readyAt = m.Clock + SwitchShutdownCost
	if m.led != nil {
		m.led.SpanSwitch(c.ID, m.Clock, c.readyAt)
	}
	m.snapshotAll()
}

// pendingSwitchID reads the inner STL id from the STLSWSTART instruction the
// CPU is parked on.
func (m *Machine) pendingSwitchID(c *CPU) int64 {
	return m.Image.Method(c.MethodID).Code[c.PC].Imm
}

// deploySlaves copies the leader's context to every other CPU and starts
// them at pc. sw marks a multilevel-switch redeploy, which the ledger
// attributes to the switch bucket rather than startup.
func (m *Machine) deploySlaves(c *CPU, pc int, cost int64, sw bool) {
	for _, sc := range m.CPUs {
		if sc.ID == c.ID {
			continue
		}
		sc.Regs = c.Regs
		sc.frames = append(sc.frames[:0], c.frames...)
		sc.MethodID = c.MethodID
		sc.PC = pc
		sc.state = stateRunning
		sc.readyAt = m.Clock + cost
		sc.pendingExKind, sc.pendingExRef = 0, 0
		sc.pendingFault = nil
		sc.overflowPending = false
		if m.led != nil {
			if sw {
				m.led.SpanSwitch(sc.ID, m.Clock, sc.readyAt)
			} else {
				m.led.SpanStartup(sc.ID, m.Clock, sc.readyAt)
			}
		}
		if m.rec != nil {
			m.record(obs.EvThreadSpawn, sc.ID, m.TLS.Iteration(sc.ID), m.stlLoopID())
		}
	}
}

// snapshotAll records every CPU's restart context for the current STL.
func (m *Machine) snapshotAll() {
	for _, c := range m.CPUs {
		c.snap = snapshot{depth: len(c.frames), sp: c.Regs[isa.SP], fp: c.Regs[isa.FP]}
	}
}
