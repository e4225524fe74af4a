// Package tls implements Hydra's thread-level speculation support: per-CPU
// speculative store buffers, exposed-read tracking via L1 speculative tag
// bits, the write-bus RAW violation broadcast, and the in-order head/commit
// protocol (paper §2).
//
// Threads are loop iterations distributed round-robin over CPUs (§4.2.2):
// CPU k executes iterations k, k+NCPU, k+2·NCPU, … The oldest uncommitted
// iteration is the non-speculative "head" thread; it alone may commit its
// store buffer, and it can never suffer a violation.
//
// TLS semantics implemented exactly as in the paper:
//
//   - RAW: a load first checks the thread's own store buffer, then the
//     buffers of sequentially older threads (data forwarding), then memory.
//     Exposed reads (loads not preceded by an own store to the same word)
//     are tracked; a store by an older thread to a tracked word violates
//     this thread and, transitively, all younger ones.
//   - WAW: buffered writes commit strictly in thread order.
//   - WAR: buffered writes are invisible to older threads.
//
// Buffer capacity limits follow Figure 2 (store buffer 64 lines, load buffer
// 512 lines). A thread that exceeds either limit must stall until it becomes
// the head, at which point its state is safe (paper §3, "speculative state
// overflow"). Handler overheads follow Table 1, with both the paper's "New"
// and "Old" generations available for the Table 1 reproduction.
package tls

import (
	"jrpm/internal/faultinject"
	"jrpm/internal/mem"
	"jrpm/internal/obs"
)

// HandlerCosts gives the fixed cycle cost of each TLS software handler
// (paper Table 1).
type HandlerCosts struct {
	Startup  int64 // STL_STARTUP (master only)
	Shutdown int64 // STL_SHUTDOWN (master only)
	EOI      int64 // STL_EOI, per committed iteration
	Restart  int64 // STL_RESTART, per violation
}

// NewHandlers are the improved handler overheads ("New" column of Table 1).
var NewHandlers = HandlerCosts{Startup: 23, Shutdown: 16, EOI: 5, Restart: 6}

// OldHandlers are the previously reported overheads ("Old" column).
var OldHandlers = HandlerCosts{Startup: 41, Shutdown: 46, EOI: 14, Restart: 13}

// Config parameterizes the speculation hardware.
type Config struct {
	NCPU             int
	StoreBufferLines int // per-thread store buffer capacity (paper: 64)
	LoadBufferLines  int // per-thread speculatively-read line limit (paper: 512)
	Handlers         HandlerCosts

	// ChaosNoWordValid is a conformance-suite hook (internal/progen): it
	// disables the store buffer's per-word valid bits on the read path, so a
	// probe hits on the line tag alone and returns whatever the data array
	// holds for unwritten words — the classic line-granularity forwarding
	// bug the Figure-2 word-valid bits exist to prevent. The differential
	// harness must detect the resulting divergence; never set it outside
	// tests and jrpm fuzz -chaos.
	ChaosNoWordValid bool
}

// DefaultConfig returns the paper's Hydra TLS configuration (Figure 2
// capacities, see PaperStoreBufferLines / PaperLoadBufferLines).
func DefaultConfig(ncpu int) Config {
	return Config{
		NCPU:             ncpu,
		StoreBufferLines: PaperStoreBufferLines,
		LoadBufferLines:  PaperLoadBufferLines,
		Handlers:         NewHandlers,
	}
}

// ChargeKind classifies cycles charged to a speculative thread attempt.
type ChargeKind int

// Charge kinds. Run covers application computation (including memory
// stalls); Wait covers waiting to become head and overflow stalls; Overhead
// covers TLS handler cycles.
const (
	ChargeRun ChargeKind = iota
	ChargeWait
	ChargeOverhead
	// ChargeWaitOverflow is ChargeWait refined for the doctor's ledger: the
	// thread is stalled on speculative-buffer overflow rather than ordinary
	// head-commit ordering. StateStats makes no distinction (both land in the
	// attempt's wait counter); only the attached obs.Ledger does.
	ChargeWaitOverflow
)

// StateStats aggregates machine cycles by the execution states of the
// paper's Figure 10. Speculative cycles land in used/violated buckets when
// the attempt commits or is discarded; Serial counts cycles outside STLs.
type StateStats struct {
	Serial       int64
	RunUsed      int64
	WaitUsed     int64
	Overhead     int64
	RunViolated  int64
	WaitViolated int64
}

// Total returns the sum over all buckets.
func (s StateStats) Total() int64 {
	return s.Serial + s.RunUsed + s.WaitUsed + s.Overhead + s.RunViolated + s.WaitViolated
}

// Add accumulates other into s.
func (s *StateStats) Add(o StateStats) {
	s.Serial += o.Serial
	s.RunUsed += o.RunUsed
	s.WaitUsed += o.WaitUsed
	s.Overhead += o.Overhead
	s.RunViolated += o.RunViolated
	s.WaitViolated += o.WaitViolated
}

// thread is the per-CPU speculation context. Its buffers have the hardware
// shapes of Figure 2 (see buffers.go): a fixed store-buffer CAM with
// word-valid bits and generation-stamped speculative read tag sets.
type thread struct {
	iter      int64 // iteration index being executed; -1 when inactive
	buf       *storeBuffer
	readWords *addrSet // exposed speculative reads (word grain)
	readLines *addrSet // distinct lines read (load buffer usage)

	// overflowed marks that the current attempt has already begun an
	// overflow-stall episode; repeated drains while the thread stays head
	// within one attempt belong to the same episode.
	overflowed bool

	// Tentative cycle accounting for the current attempt (flushed to
	// StateStats on commit or violation).
	run, wait, overhead int64
}

func (t *thread) resetSpecState() {
	t.buf.reset()
	t.readWords.reset()
	t.readLines.reset()
	t.overflowed = false
}

// Unit is the machine-wide TLS controller.
type Unit struct {
	cfg    Config
	memory *mem.Memory
	caches *mem.CacheSim
	inj    *faultinject.Injector

	active     bool
	solo       bool // sequential-fallback mode: only the head thread runs
	stlID      int64
	hardCap    int // runaway store-buffer line limit (see hardCapLines)
	threads    []*thread
	nextCommit int64 // iteration index of the current head
	nextSpawn  int64 // next iteration index to hand out

	// Stats is the Figure 10 state accounting, plus event counters below.
	Stats      StateStats
	Commits    int64
	Violations int64
	Overflows  int64 // overflow stall episodes

	// MaxStoreLines / MaxLoadLines record the high-water buffer usage of
	// committed threads (Table 3 columns j and k).
	MaxStoreLines   int
	MaxLoadLines    int
	sumStoreLines   int64
	sumLoadLines    int64
	committedLoads  int64
	committedStores int64

	// led mirrors the attempt accounting into the doctor's per-loop cycle
	// ledger when attached (nil in ordinary runs; pure observation, never
	// feeds back into Stats or scheduling).
	led *obs.Ledger
}

// NewUnit builds a TLS unit over the given memory and caches.
func NewUnit(cfg Config, memory *mem.Memory, caches *mem.CacheSim) *Unit {
	u := &Unit{cfg: cfg, memory: memory, caches: caches}
	u.hardCap = u.hardCapLines()
	// Read-set sizing: the overflow-park protocol stalls a thread once its
	// read-line count passes LoadBufferLines, so the sets see at most a few
	// entries beyond that (they grow if a protocol path outruns the bound).
	readLineCap := cfg.LoadBufferLines + 8
	for i := 0; i < cfg.NCPU; i++ {
		u.threads = append(u.threads, &thread{
			iter:      -1,
			buf:       newStoreBuffer(u.hardCap),
			readWords: newAddrSet(readLineCap * mem.LineWords),
			readLines: newAddrSet(readLineCap),
		})
	}
	return u
}

// Reset returns the unit to the state NewUnit builds for cfg over the same
// memory and caches, keeping its buffers as the hardware keeps its RAM.
// cfg must have the shape the unit was built with: the same NCPU,
// StoreBufferLines and LoadBufferLines (handler costs may differ). The
// buffers clear by generation bump.
func (u *Unit) Reset(cfg Config) {
	*u = Unit{cfg: cfg, memory: u.memory, caches: u.caches, hardCap: u.hardCap, threads: u.threads}
	for _, t := range u.threads {
		t.resetSpecState()
		*t = thread{iter: -1, buf: t.buf, readWords: t.readWords, readLines: t.readLines}
	}
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// SetInjector attaches a fault injector (nil disables injection).
func (u *Unit) SetInjector(inj *faultinject.Injector) { u.inj = inj }

// SetLedger attaches the doctor's cycle-conservation ledger (nil detaches).
func (u *Unit) SetLedger(led *obs.Ledger) { u.led = led }

// Active reports whether an STL is executing speculatively.
func (u *Unit) Active() bool { return u.active }

// Solo reports whether the unit runs in sequential-fallback mode: only the
// head thread executes and iterations advance one at a time.
func (u *Unit) Solo() bool { return u.active && u.solo }

// STL returns the id of the active STL (meaningful only when Active).
func (u *Unit) STL() int64 { return u.stlID }

// Start activates speculation for an STL with CPU 0 as the master/head:
// iteration i is assigned to CPU i. The STL_STARTUP handler cost is charged
// to the Overhead bucket.
func (u *Unit) Start(stlID int64) error { return u.StartAt(stlID, 0, 0) }

// StartAt activates speculation with headCPU executing iteration baseIter
// and the remaining CPUs taking baseIter+1, baseIter+2, … in CPU-id order
// (wrapping past headCPU). Used both for ordinary STL entry (head = master,
// base 0) and to resume an outer STL after a multilevel switch.
func (u *Unit) StartAt(stlID int64, headCPU int, baseIter int64) error {
	if u.active {
		return stateErr("StartAt", "nested STL start (only one STL may be active)")
	}
	u.active = true
	u.solo = false
	u.Stats.Overhead += u.cfg.Handlers.Startup
	u.assign(stlID, headCPU, baseIter)
	return nil
}

// StartSolo activates the unit in sequential-fallback mode for a
// decertified STL: only headCPU runs; it is permanently the head and
// iterations advance one at a time, so the TLS-compiled code executes with
// sequential semantics (the machine redirects each committed iteration back
// through STL_INIT, which re-derives all register state from the hardware
// iteration register and the frame home slots).
func (u *Unit) StartSolo(stlID int64, headCPU int) error {
	if u.active {
		return stateErr("StartSolo", "nested STL start (only one STL may be active)")
	}
	u.active = true
	u.solo = true
	u.Stats.Overhead += u.cfg.Handlers.Startup
	u.assign(stlID, headCPU, 0)
	return nil
}

// assign distributes iterations round-robin starting at the head CPU. In
// solo mode only the head thread is populated and iterations hand out one
// at a time.
func (u *Unit) assign(stlID int64, headCPU int, baseIter int64) {
	u.stlID = stlID
	u.nextCommit = baseIter
	n := u.cfg.NCPU
	if u.solo {
		u.nextSpawn = baseIter + 1
		for c, t := range u.threads {
			if c == headCPU {
				t.iter = baseIter
			} else {
				t.iter = -1
			}
			t.resetSpecState()
			t.run, t.wait, t.overhead = 0, 0, 0
		}
		return
	}
	u.nextSpawn = baseIter + int64(n)
	for off := 0; off < n; off++ {
		t := u.threads[(headCPU+off)%n]
		t.iter = baseIter + int64(off)
		t.resetSpecState()
		t.run, t.wait, t.overhead = 0, 0, 0
	}
}

// SwitchSTL reassigns the active unit to a different STL without paying the
// full startup/shutdown handlers — the multilevel decomposition switch of
// §4.2.6. The head CPU must have committed its partial buffer and killed
// the younger threads first (CommitPartial + KillYounger). Solo mode is
// preserved across the switch.
func (u *Unit) SwitchSTL(stlID int64, headCPU int, baseIter int64) error {
	if !u.active {
		return stateErr("SwitchSTL", "while inactive")
	}
	if !u.IsHead(headCPU) {
		return u.headErr("SwitchSTL", headCPU)
	}
	// The head's tentative cycles are non-speculative work whose stores the
	// mandatory CommitPartial already published; flush them to the used
	// buckets before assign zeroes the attempt counters. Without this the
	// cycles of every partial outer iteration silently vanished from the
	// Figure 10 accounting (found by the litmus machine's cycle-conservation
	// check; pinned in testdata/litmus/switch_stl_accounting.json).
	u.flushAttempt(headCPU, u.threads[headCPU], true)
	u.assign(stlID, headCPU, baseIter)
	return nil
}

// DemoteSolo converts a running STL to sequential-fallback mode: the head
// keeps its current iteration, every younger thread is killed (work
// discarded to the violated buckets), and iterations hand out one at a
// time from the head's. Returns the killed CPUs so the caller can idle
// them.
func (u *Unit) DemoteSolo(cpu int) ([]int, error) {
	if !u.active {
		return nil, stateErr("DemoteSolo", "while inactive")
	}
	if !u.IsHead(cpu) {
		return nil, u.headErr("DemoteSolo", cpu)
	}
	killed := u.KillYounger(cpu)
	u.solo = true
	u.nextSpawn = u.threads[cpu].iter + 1
	return killed, nil
}

// CommitPartial drains the head's store buffer mid-iteration (its state is
// non-speculative) without advancing the head token. Used by the multilevel
// switch and by overflow drains at loop granularity.
func (u *Unit) CommitPartial(cpu int) error {
	t := u.threads[cpu]
	if !u.IsHead(cpu) {
		return u.headErr("CommitPartial", cpu)
	}
	u.drainBuffer(cpu, t)
	t.readWords.reset()
	t.readLines.reset()
	return nil
}

// KillYounger discards every thread younger than cpu's (their work flushes
// to the violated buckets) and returns the affected CPUs.
func (u *Unit) KillYounger(cpu int) []int {
	my := u.threads[cpu].iter
	var killed []int
	for c, t := range u.threads {
		if t.iter > my {
			u.flushAttempt(c, t, false)
			t.resetSpecState()
			t.iter = -1
			killed = append(killed, c)
		}
	}
	return killed
}

// Iteration returns the iteration index CPU cpu is executing.
func (u *Unit) Iteration(cpu int) int64 { return u.threads[cpu].iter }

// IsHead reports whether cpu's thread is the non-speculative head.
func (u *Unit) IsHead(cpu int) bool {
	return u.active && u.threads[cpu].iter == u.nextCommit
}

// ChargeAttempt adds cycles to the current attempt of cpu's thread. When
// speculation is inactive the cycles go straight to the Serial bucket.
func (u *Unit) ChargeAttempt(cpu int, kind ChargeKind, cycles int64) {
	if !u.active {
		u.Stats.Serial += cycles
		return
	}
	t := u.threads[cpu]
	switch kind {
	case ChargeRun:
		t.run += cycles
	case ChargeWait, ChargeWaitOverflow:
		t.wait += cycles
	case ChargeOverhead:
		t.overhead += cycles
	}
}

// ChargeAttemptDiag is ChargeAttempt with the charge mirrored into the
// doctor's ledger. It is a separate entry point — not a branch inside
// ChargeAttempt — so the undiagnosed per-instruction path keeps its
// inlining; hydra selects it once per charge site when a ledger is
// attached. Callers must only use it when a ledger is attached.
func (u *Unit) ChargeAttemptDiag(cpu int, kind ChargeKind, cycles int64) {
	u.ChargeAttempt(cpu, kind, cycles)
	if !u.active {
		u.led.ChargeSerial(cpu, cycles)
		return
	}
	switch kind {
	case ChargeRun:
		u.led.ChargeRun(cpu, cycles)
	case ChargeWait, ChargeWaitOverflow:
		u.led.ChargeWait(cpu, cycles, kind == ChargeWaitOverflow)
	case ChargeOverhead:
		// No ledger mirror: nothing in hydra charges ChargeOverhead today
		// (handler costs flow through the dedicated hooks; the ledger would
		// have no bucket to refine it into).
	}
}

// flushAttempt moves tentative cycles into the used or violated buckets.
func (u *Unit) flushAttempt(cpu int, t *thread, used bool) {
	if used {
		u.Stats.RunUsed += t.run
		u.Stats.WaitUsed += t.wait
	} else {
		u.Stats.RunViolated += t.run
		u.Stats.WaitViolated += t.wait
	}
	u.Stats.Overhead += t.overhead
	t.run, t.wait, t.overhead = 0, 0, 0
	if u.led != nil {
		u.led.FlushAttempt(cpu, used)
	}
}

// Load performs a speculative load by cpu. It returns the value, the charged
// latency, and whether the read is newly tracked. Forwarding order: own
// buffer, then older threads from youngest to oldest, then memory.
// If noViolate is true (the lwnv instruction) the read is not tracked and
// can never cause a violation.
func (u *Unit) Load(cpu int, a mem.Addr, noViolate bool) (int64, int64) {
	t := u.threads[cpu]
	if v, ok := u.probeBuf(t.buf, a); ok {
		return v, mem.LatL1 // own store buffer hit
	}
	// Track the exposed read before looking for forwarded data.
	if !noViolate {
		t.readWords.add(a)
		t.readLines.add(mem.Line(a))
	}
	// Forward from the nearest older thread that buffered the word.
	myIter := t.iter
	var bestIter int64 = -1
	var bestVal int64
	for _, ot := range u.threads {
		if ot.iter >= 0 && ot.iter < myIter && ot.iter > bestIter {
			if v, ok := u.probeBuf(ot.buf, a); ok {
				bestIter = ot.iter
				bestVal = v
			}
		}
	}
	if bestIter >= 0 {
		return bestVal, u.caches.InterprocLatency()
	}
	return u.memory.Read(a), u.caches.Load(cpu, a)
}

// TrackRead records an exposed read that transferred no data: the machine
// calls it when a speculative load faults on a wild address, after the
// hardware load buffer has already latched the read but before the bus access
// completes. It mirrors Load's tracking exactly (own-buffer hits are not
// exposed) so the faulting path leaves the same architectural footprint.
func (u *Unit) TrackRead(cpu int, a mem.Addr) {
	t := u.threads[cpu]
	if _, ok := u.probeBuf(t.buf, a); ok {
		return
	}
	t.readWords.add(a)
	t.readLines.add(mem.Line(a))
}

// probeBuf reads word a from a store buffer, honoring the per-word valid
// bits unless the ChaosNoWordValid conformance hook disables them.
func (u *Unit) probeBuf(b *storeBuffer, a mem.Addr) (int64, bool) {
	if u.cfg.ChaosNoWordValid {
		return b.getLineOnly(a)
	}
	return b.get(a)
}

// hardCapLines returns the runaway limit on buffered store lines: far above
// the stall threshold, so it only trips when the overflow-park machinery
// failed to stop the thread — an unrecoverable state surfaced as a typed
// error rather than unbounded growth.
func (u *Unit) hardCapLines() int {
	cap := u.cfg.StoreBufferLines * 16
	if cap < 1024 {
		cap = 1024
	}
	return cap
}

// Store performs a speculative store by cpu and returns the charged latency
// plus the list of CPUs whose threads were violated by the write-bus
// broadcast (each must restart; the caller redirects their PCs and charges
// the restart handler). Fault injection may delay write-bus arbitration
// (extra latency). A buffer grown past the runaway hard cap returns
// ErrStoreBufferOverflow.
func (u *Unit) Store(cpu int, a mem.Addr, v int64) (int64, []int, error) {
	t := u.threads[cpu]
	t.buf.put(a, v)
	if t.buf.lines() > u.hardCap {
		return 0, nil, &OverflowError{
			CPU: cpu, Iter: t.iter, Addr: a, Lines: t.buf.lines(), HardCap: u.hardCap,
		}
	}
	violated := u.broadcast(cpu, a)
	return mem.LatL1 + u.inj.BusDelayCycles(), violated, nil
}

// broadcast finds the oldest younger thread with an exposed read of a and
// violates it and everything younger.
func (u *Unit) broadcast(cpu int, a mem.Addr) []int {
	my := u.threads[cpu].iter
	var oldest int64 = -1
	for _, ot := range u.threads {
		if ot.iter > my && ot.readWords.contains(a) {
			if oldest < 0 || ot.iter < oldest {
				oldest = ot.iter
			}
		}
	}
	if oldest < 0 {
		return nil
	}
	if u.led != nil {
		// Attribute every attempt this broadcast discards to the violating
		// store's address (symbolized against the writer's frame).
		u.led.BeginViolation(cpu, int64(a))
		cpus := u.ViolateFrom(oldest)
		u.led.EndViolation()
		return cpus
	}
	return u.ViolateFrom(oldest)
}

// ViolateFrom restarts every thread with iteration >= fromIter: speculative
// state is discarded, tentative cycles flush to the violated buckets, and
// the restart handler cost is charged. It returns the affected CPUs; the
// caller must redirect their PCs to the STL restart point.
func (u *Unit) ViolateFrom(fromIter int64) []int {
	var cpus []int
	for c, t := range u.threads {
		if t.iter >= fromIter {
			u.Violations++
			u.flushAttempt(c, t, false)
			t.resetSpecState()
			t.overhead += u.cfg.Handlers.Restart
			if u.led != nil {
				u.led.ChargeRestart(c, u.cfg.Handlers.Restart)
			}
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// StoreOverflow reports whether cpu's store buffer exceeds capacity. Fault
// injection can assert capacity pressure early.
func (u *Unit) StoreOverflow(cpu int) bool {
	if u.threads[cpu].buf.lines() > u.cfg.StoreBufferLines {
		return true
	}
	return u.inj.OverflowPressure()
}

// LoadOverflow reports whether cpu's speculatively-read line set exceeds the
// load buffer (L1 speculative tag) capacity. Fault injection can assert
// capacity pressure early.
func (u *Unit) LoadOverflow(cpu int) bool {
	if u.threads[cpu].readLines.len() > u.cfg.LoadBufferLines {
		return true
	}
	return u.inj.OverflowPressure()
}

// DrainOverflow is called when an overflowed thread has become the head: its
// state is non-speculative, so the store buffer drains to memory and the
// read tracking clears. The thread then continues in place.
//
// It returns whether this drain opened a new overflow episode. A thread
// that keeps overflowing while it stays head drains repeatedly within one
// attempt; those drains continue the same stall episode and must not
// inflate the Overflows counter (one episode = one contiguous stretch of
// overflow pressure within one attempt — the quantity the §6.2 adaptive
// feedback thresholds on).
func (u *Unit) DrainOverflow(cpu int) (bool, error) {
	t := u.threads[cpu]
	if t.iter != u.nextCommit {
		return false, u.headErr("DrainOverflow", cpu)
	}
	newEpisode := !t.overflowed
	t.overflowed = true
	if newEpisode {
		u.Overflows++
	}
	u.drainBuffer(cpu, t)
	t.readWords.reset()
	t.readLines.reset()
	return newEpisode, nil
}

// drainBuffer commits the buffered lines to memory in line-allocation order
// (words ascending within each line) — the order the hardware write-back
// would use, and deterministic, unlike iterating a Go map.
func (u *Unit) drainBuffer(cpu int, t *thread) {
	b := t.buf
	for _, slot := range b.order {
		base := b.tags[slot] * mem.LineWords
		vbits := b.valid[slot]
		for off := mem.Addr(0); off < mem.LineWords; off++ {
			if vbits&(1<<off) != 0 {
				a := base + off
				u.memory.Write(a, b.words[int(slot)*mem.LineWords+int(off)])
				u.caches.Store(cpu, a) // keep tag state coherent; drain is background
			}
		}
	}
	b.reset()
}

// CommitEOI commits the head thread at the end of its iteration: the buffer
// drains in order, speculative tags clear, the head token advances, and the
// CPU is handed the next round-robin iteration (the next sequential
// iteration in solo mode). The EOI handler cost is charged to the (new)
// attempt. Errors if cpu is not the head — the caller must spin in a wait
// state until IsHead.
func (u *Unit) CommitEOI(cpu int) error {
	t := u.threads[cpu]
	if !u.IsHead(cpu) {
		return u.headErr("CommitEOI", cpu)
	}
	u.noteBufferUsage(t)
	u.flushAttempt(cpu, t, true)
	u.drainBuffer(cpu, t)
	t.readWords.reset()
	t.readLines.reset()
	t.overflowed = false
	u.Commits++
	u.nextCommit++
	t.iter = u.nextSpawn
	u.nextSpawn++
	t.overhead += u.cfg.Handlers.EOI
	if u.led != nil {
		u.led.ChargeEOI(cpu, u.cfg.Handlers.EOI)
	}
	return nil
}

func (u *Unit) noteBufferUsage(t *thread) {
	sl := t.buf.lines()
	ll := t.readLines.len()
	if sl > u.MaxStoreLines {
		u.MaxStoreLines = sl
	}
	if ll > u.MaxLoadLines {
		u.MaxLoadLines = ll
	}
	u.sumStoreLines += int64(sl)
	u.sumLoadLines += int64(ll)
	u.committedStores++
	u.committedLoads++
}

// AvgBufferLines returns the mean store-buffer and load-buffer line usage of
// committed threads (Table 3 columns).
func (u *Unit) AvgBufferLines() (store, load float64) {
	if u.committedStores == 0 {
		return 0, 0
	}
	return float64(u.sumStoreLines) / float64(u.committedStores),
		float64(u.sumLoadLines) / float64(u.committedLoads)
}

// Shutdown finalizes the STL: the exiting thread (which must be the head)
// commits its buffer; every younger thread is killed and its work discarded
// into the violated buckets. Speculation deactivates. Returns the CPUs that
// were killed so the caller can idle them.
func (u *Unit) Shutdown(cpu int) ([]int, error) {
	t := u.threads[cpu]
	if !u.IsHead(cpu) {
		return nil, u.headErr("Shutdown", cpu)
	}
	u.noteBufferUsage(t)
	u.flushAttempt(cpu, t, true)
	u.drainBuffer(cpu, t)
	u.Stats.Overhead += u.cfg.Handlers.Shutdown
	var killed []int
	for c, ot := range u.threads {
		if c == cpu {
			ot.iter = -1
			continue
		}
		if ot.iter >= 0 {
			u.flushAttempt(c, ot, false)
			ot.resetSpecState()
			ot.iter = -1
			killed = append(killed, c)
		}
	}
	u.active = false
	u.solo = false
	return killed, nil
}

// ChargeSerial adds cycles to the Serial bucket directly (used by the
// machine for non-speculative execution).
func (u *Unit) ChargeSerial(cycles int64) { u.Stats.Serial += cycles }

// ResetStats clears the accumulated statistics (between program phases).
func (u *Unit) ResetStats() {
	u.Stats = StateStats{}
	u.Commits, u.Violations, u.Overflows = 0, 0, 0
	u.MaxStoreLines, u.MaxLoadLines = 0, 0
	u.sumStoreLines, u.sumLoadLines = 0, 0
	u.committedLoads, u.committedStores = 0, 0
}
