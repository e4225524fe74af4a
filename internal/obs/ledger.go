package obs

import (
	"fmt"
	"sort"
)

// Ledger is the per-loop cycle-conservation ledger behind the speculation
// doctor (internal/diagnose): every simulated cycle of every CPU is
// attributed to exactly one bucket, and the sum over all buckets must equal
// wall cycles × CPUs (plus the in-flight overrun of a run cut short
// mid-instruction — see InFlight).
//
// The ledger is passive: it never touches the machine clock, readyAt
// scheduling, or tls.StateStats, so cycle counts are bit-identical whether
// it is attached or not. It refines the tls unit's attempt accounting rather
// than keeping a copy of it:
//
//   - the unit's flushes hand each attempt's run, commit-wait and
//     overflow-wait cycles to FlushAttempt, which splits them into used,
//     violated and guard buckets, and the unit's handler hooks (ChargeEOI,
//     ChargeRestart) name the handler buckets;
//   - hydra charges clamped absolute spans at the scheduling points the unit
//     cannot see (startup/shutdown parking, multilevel switches, GC,
//     deferred IO and exceptions, overflow drains): each charges the gap
//     between the CPU's watermark and a target cycle.
//
// A CPU's watermark is the unit's running total of cycles charged to it
// (AttemptSource.ChargedCycles) plus the ledger's own spans and idle sweeps.
// Close sweeps the remaining gap on every CPU into Idle and takes the serial
// total and the still-pending attempts from the unit, so the buckets add up
// to the watermarks exactly when every charged cycle reached a bucket.
// CheckConservation guards that: an attempt the unit drops without a flush
// stays in the watermark and breaks the identity.
type Ledger struct {
	ncpu int

	src AttemptSource // the tls unit; nil once Close has read it
	own []int64       // per-CPU cycles the ledger attributed itself (spans, idle)

	mach  MachineBuckets
	loops map[int64]*loopState
	cur   *loopState
	mode  LoopMode

	symbolize func(cpu int, addr int64) SiteKey
	curSite   *SiteStats // pending violation site during one write-bus broadcast

	closed bool
	wall   int64
}

// AttemptSource is the attempt accounting a ledger refines; *tls.Unit
// implements it.
type AttemptSource interface {
	// ChargedCycles is every cycle charged to cpu so far: serial and attempt
	// cycles and the handler costs the ledger hears of through ChargeEOI and
	// ChargeRestart.
	ChargedCycles(cpu int) int64
	// PendingCycles is the run and wait cycles of cpu's attempt that no
	// flush has judged yet.
	PendingCycles(cpu int) int64
	// SerialCycles is the cycles charged outside speculation.
	SerialCycles() int64
}

// LoopMode tags how the active STL entry is executing; it routes used
// run/wait cycles either to the ordinary parallel buckets or to the guard's
// solo/probe buckets.
type LoopMode uint8

// Loop execution modes.
const (
	LoopParallel LoopMode = iota
	LoopSolo              // guard sequential-fallback (decertified loop)
	LoopProbe             // guard re-probe entry after decertification
)

// MachineBuckets attribute cycles spent outside any STL, plus the ledger's
// closing sweeps.
type MachineBuckets struct {
	Serial          int64 `json:"serial"`           // serial phase, whichever host engine ran it
	SerialGC        int64 `json:"serial_gc"`        // stop-the-world collection outside STLs
	SerialException int64 `json:"serial_exception"` // exception dispatch outside STLs
	Idle            int64 `json:"idle"`             // CPU parked with no thread assigned
	Cancelled       int64 `json:"cancelled"`        // tentative attempt cycles left in flight when the run stopped
	Leaked          int64 `json:"leaked"`           // attempt or handler cycles judged outside any STL (must stay 0)
	// InFlight is the watermark overrun past the final clock: cycles of the
	// last charged instruction spans that the halted/cancelled run never
	// reached. It is zero on every cleanly halted run and is the correction
	// term of the conservation identity (see LedgerSnapshot.Attributed).
	InFlight int64 `json:"in_flight"`
}

// LoopBuckets attribute the cycles of one STL (keyed by cfg global loop id)
// following the paper's Figure 9/10 state taxonomy, refined by handler and
// guard mode.
type LoopBuckets struct {
	RunUsed      int64 `json:"run_used"`      // committed iteration work
	WaitCommit   int64 `json:"wait_commit"`   // waiting to become head (committed attempts)
	WaitOverflow int64 `json:"wait_overflow"` // buffer-overflow stall (committed attempts)
	RunViolated  int64 `json:"run_violated"`  // discarded iteration work
	WaitViolated int64 `json:"wait_violated"` // discarded wait time

	HandlerStartup  int64 `json:"handler_startup"`  // STL_STARTUP parking (hoist-adjusted)
	HandlerShutdown int64 `json:"handler_shutdown"` // STL_SHUTDOWN parking (hoist-adjusted)
	HandlerEOI      int64 `json:"handler_eoi"`      // STL_EOI per committed iteration
	HandlerRestart  int64 `json:"handler_restart"`  // STL_RESTART per violation
	SwitchCost      int64 `json:"switch_cost"`      // multilevel switch handlers (§4.2.6)

	OverflowDrain int64 `json:"overflow_drain"` // head store-buffer drain steps
	IOCommit      int64 `json:"io_commit"`      // deferred IO performed at the head
	GC            int64 `json:"gc"`             // collection quiesce + run inside the STL
	Exception     int64 `json:"exception"`      // exception dispatch inside the STL

	GuardSolo  int64 `json:"guard_solo"`  // sequential-fallback execution (decertified)
	GuardProbe int64 `json:"guard_probe"` // re-probe execution after decertification
}

// Total sums every bucket.
func (b *LoopBuckets) Total() int64 {
	return b.RunUsed + b.WaitCommit + b.WaitOverflow + b.RunViolated + b.WaitViolated +
		b.HandlerStartup + b.HandlerShutdown + b.HandlerEOI + b.HandlerRestart +
		b.SwitchCost + b.OverflowDrain + b.IOCommit + b.GC + b.Exception +
		b.GuardSolo + b.GuardProbe
}

// SiteKind classifies a symbolized violation address.
type SiteKind uint8

// Violation site kinds.
const (
	SiteNone     SiteKind = iota
	SiteStatic            // static field word (Off = static index)
	SiteFrame             // stack frame word (Method + Off = frame offset)
	SiteHeap              // heap word (Off = raw address)
	SiteGC                // synthetic: threads discarded to quiesce for GC
	SiteInjected          // synthetic: fault-injected spurious violation
	SiteOther             // overflow bucket once a loop's site table is full
)

// SiteKey identifies one violation source after address symbolization.
type SiteKey struct {
	Kind   SiteKind `json:"kind"`
	Method int32    `json:"method"` // meaningful for SiteFrame
	Off    int64    `json:"off"`
}

// SiteStats aggregates the damage attributed to one violation site.
type SiteStats struct {
	Key           SiteKey  `json:"key"`
	Count         int64    `json:"count"`          // violated attempts
	DiscardedRun  int64    `json:"discarded_run"`  // run cycles thrown away
	DiscardedWait int64    `json:"discarded_wait"` // wait cycles thrown away
	Symbol        string   `json:"symbol"`         // resolved by hydra.AnnotateLedger
	Slot          SlotKind `json:"slot"`           // frame-slot class for SiteFrame
	SlotIndex     int32    `json:"slot_index"`     // bytecode local index for classified frame slots
}

// Discarded is the total cycles this site cost.
func (s *SiteStats) Discarded() int64 { return s.DiscardedRun + s.DiscardedWait }

// SlotKind classifies one word of a compiled method's stack frame; the JIT
// records a per-method table (hydra.Method.Frame) so the doctor can
// symbolize frame addresses back to bytecode locals and STL bookkeeping
// slots.
type SlotKind uint8

// Frame slot kinds.
const (
	SlotUnknown   SlotKind = iota
	SlotLocal              // home of bytecode local (Index = local slot)
	SlotSaved              // callee-saved register save area
	SlotResetBase          // resetable-inductor base word (Index = local slot, §4.2.3)
	SlotLock               // explicit-sync lock word (Index = protected slot, §4.2.5)
	SlotRed                // per-CPU reduction partial (Index = reduced slot, §4.2.4)
	SlotSpill              // expression spill
)

// FrameSlot describes one frame word for symbolization.
type FrameSlot struct {
	Kind  SlotKind
	Index int32 // bytecode local slot for Local/ResetBase/Lock/Red
}

// maxSitesPerLoop bounds the per-loop violation site table; further sites
// aggregate under SiteOther so the enabled hot path stays O(1) memory.
const maxSitesPerLoop = 64

type loopState struct {
	id      int64
	entries int64
	b       LoopBuckets
	sites   map[SiteKey]*SiteStats
}

// NewLedger builds a ledger for an ncpu machine.
func NewLedger(ncpu int) *Ledger {
	return &Ledger{
		ncpu:  ncpu,
		own:   make([]int64, ncpu),
		loops: map[int64]*loopState{},
	}
}

// SetSource attaches the attempt accounting the ledger refines (the tls
// unit does this when the ledger is attached to it). The source must not
// have charged any cycles yet.
func (l *Ledger) SetSource(src AttemptSource) { l.src = src }

// SetSymbolizer installs the address-to-site resolver (hydra installs a
// closure over the machine so frame addresses resolve against the violating
// CPU's frame pointer at broadcast time).
func (l *Ledger) SetSymbolizer(fn func(cpu int, addr int64) SiteKey) { l.symbolize = fn }

// watermark returns the cycles attributed to cpu so far.
func (l *Ledger) watermark(cpu int) int64 {
	return l.src.ChargedCycles(cpu) + l.own[cpu]
}

// --- refinements of the tls unit's accounting ---

// ChargeEOI attributes the end-of-iteration handler cost.
func (l *Ledger) ChargeEOI(cycles int64) {
	if l.cur != nil {
		l.cur.b.HandlerEOI += cycles
	} else {
		l.mach.Leaked += cycles
	}
}

// ChargeRestart attributes the restart handler cost charged to a violated
// thread's next attempt.
func (l *Ledger) ChargeRestart(cycles int64) {
	if l.cur != nil {
		l.cur.b.HandlerRestart += cycles
	} else {
		l.mach.Leaked += cycles
	}
}

// FlushAttempt judges one flushed attempt's run, commit-wait and
// overflow-wait cycles: committed attempts land in the used buckets of the
// current mode, discarded attempts land in the violated buckets and feed the
// pending violation site, if any.
func (l *Ledger) FlushAttempt(used bool, run, wc, wo int64) {
	if run == 0 && wc == 0 && wo == 0 && (used || l.curSite == nil) {
		return
	}
	if l.cur == nil {
		l.mach.Leaked += run + wc + wo
		return
	}
	switch {
	case !used:
		l.cur.b.RunViolated += run
		l.cur.b.WaitViolated += wc + wo
		if l.curSite != nil {
			l.curSite.Count++
			l.curSite.DiscardedRun += run
			l.curSite.DiscardedWait += wc + wo
		}
	case l.mode == LoopSolo:
		l.cur.b.GuardSolo += run + wc + wo
	case l.mode == LoopProbe:
		l.cur.b.GuardProbe += run + wc + wo
	default:
		l.cur.b.RunUsed += run
		l.cur.b.WaitCommit += wc
		l.cur.b.WaitOverflow += wo
	}
}

// --- violation attribution ---

// BeginViolation opens a site-attribution window for one write-bus
// broadcast: attempts flushed as violated until EndViolation are charged to
// the site of the given store address (symbolized against the writer CPU).
func (l *Ledger) BeginViolation(writerCPU int, addr int64) {
	if l.cur == nil {
		return
	}
	key := SiteKey{Kind: SiteHeap, Off: addr}
	if l.symbolize != nil {
		key = l.symbolize(writerCPU, addr)
	}
	l.curSite = l.site(key)
}

// BeginSyntheticViolation opens an attribution window for violations with no
// store address (GC quiesce, injected spurious RAW).
func (l *Ledger) BeginSyntheticViolation(kind SiteKind) {
	if l.cur == nil {
		return
	}
	l.curSite = l.site(SiteKey{Kind: kind})
}

// EndViolation closes the attribution window.
func (l *Ledger) EndViolation() { l.curSite = nil }

func (l *Ledger) site(key SiteKey) *SiteStats {
	s := l.cur.sites[key]
	if s == nil {
		if len(l.cur.sites) >= maxSitesPerLoop {
			key = SiteKey{Kind: SiteOther}
			if s = l.cur.sites[key]; s != nil {
				return s
			}
		}
		s = &SiteStats{Key: key}
		l.cur.sites[key] = s
	}
	return s
}

// --- absolute spans (hydra scheduling points) ---

// span sweeps any gap between cpu's watermark and `clock` into Idle (the CPU
// was parked with no thread) and charges the rest up to `until` to *bucket.
func (l *Ledger) span(cpu int, clock, until int64, bucket *int64) {
	w := l.watermark(cpu)
	if d := clock - w; d > 0 {
		l.mach.Idle += d
		l.own[cpu] += d
		w = clock
	}
	if d := until - w; d > 0 {
		*bucket += d
		l.own[cpu] += d
	}
}

func (l *Ledger) loopBucket(pick func(*LoopBuckets) *int64, fallback *int64) *int64 {
	if l.cur != nil {
		return pick(&l.cur.b)
	}
	return fallback
}

// SpanStartup charges STL startup parking (master and woken slaves).
func (l *Ledger) SpanStartup(cpu int, clock, until int64) {
	l.span(cpu, clock, until, l.loopBucket(func(b *LoopBuckets) *int64 { return &b.HandlerStartup }, &l.mach.Leaked))
}

// SpanShutdown charges STL shutdown parking on the exiting master.
func (l *Ledger) SpanShutdown(cpu int, clock, until int64) {
	l.span(cpu, clock, until, l.loopBucket(func(b *LoopBuckets) *int64 { return &b.HandlerShutdown }, &l.mach.Leaked))
}

// SpanSwitch charges multilevel switch handler parking.
func (l *Ledger) SpanSwitch(cpu int, clock, until int64) {
	l.span(cpu, clock, until, l.loopBucket(func(b *LoopBuckets) *int64 { return &b.SwitchCost }, &l.mach.Leaked))
}

// SpanDrain charges a head overflow-drain step.
func (l *Ledger) SpanDrain(cpu int, clock, until int64) {
	l.span(cpu, clock, until, l.loopBucket(func(b *LoopBuckets) *int64 { return &b.OverflowDrain }, &l.mach.Leaked))
}

// SpanIO charges deferred IO performed once the thread reached the head.
func (l *Ledger) SpanIO(cpu int, clock, until int64) {
	l.span(cpu, clock, until, l.loopBucket(func(b *LoopBuckets) *int64 { return &b.IOCommit }, &l.mach.Leaked))
}

// SpanGC charges a stop-the-world collection (loop bucket inside an STL,
// serial bucket otherwise).
func (l *Ledger) SpanGC(cpu int, clock, until int64) {
	l.span(cpu, clock, until, l.loopBucket(func(b *LoopBuckets) *int64 { return &b.GC }, &l.mach.SerialGC))
}

// SpanException charges exception dispatch and unwinding.
func (l *Ledger) SpanException(cpu int, clock, until int64) {
	l.span(cpu, clock, until, l.loopBucket(func(b *LoopBuckets) *int64 { return &b.Exception }, &l.mach.SerialException))
}

// --- STL lifecycle ---

// BeginSTL opens accounting for one STL entry.
func (l *Ledger) BeginSTL(loopID int64, mode LoopMode) {
	l.cur = l.loop(loopID)
	l.cur.entries++
	l.mode = mode
}

// SwitchTo redirects accounting to another loop mid-speculation (multilevel
// switch): the guard mode is preserved and the entry count of the target is
// not bumped (a switch is not a fresh entry).
func (l *Ledger) SwitchTo(loopID int64) {
	l.cur = l.loop(loopID)
}

// SetMode records a mid-loop mode change (guard demotion to solo).
func (l *Ledger) SetMode(mode LoopMode) { l.mode = mode }

// EndSTL closes accounting for the active STL.
func (l *Ledger) EndSTL() {
	l.cur = nil
	l.curSite = nil
	l.mode = LoopParallel
}

func (l *Ledger) loop(id int64) *loopState {
	ls := l.loops[id]
	if ls == nil {
		ls = &loopState{id: id, sites: map[SiteKey]*SiteStats{}}
		l.loops[id] = ls
	}
	return ls
}

// Close finalizes the ledger at the machine's final clock: unclaimed cycles
// below the clock sweep into Idle, watermark overruns past it are recorded
// as InFlight, attempts still in flight (a cancelled or budget-stopped run)
// land in Cancelled, and the serial total is read. Close is the ledger's
// last read of its source, so the unit may be recycled afterwards.
// Idempotent: only the first Close takes effect.
func (l *Ledger) Close(clock int64) {
	if l.closed {
		return
	}
	l.closed = true
	l.wall = clock
	l.mach.Serial = l.src.SerialCycles()
	for cpu := 0; cpu < l.ncpu; cpu++ {
		l.mach.Cancelled += l.src.PendingCycles(cpu)
		if d := clock - l.watermark(cpu); d > 0 {
			l.mach.Idle += d
			l.own[cpu] += d
		} else if d < 0 {
			l.mach.InFlight += -d
		}
	}
	l.src = nil
}

// LoopLedger is the snapshot of one loop's accounting.
type LoopLedger struct {
	LoopID  int64       `json:"loop_id"`
	Entries int64       `json:"entries"`
	Buckets LoopBuckets `json:"buckets"`
	Sites   []SiteStats `json:"sites,omitempty"`
}

// LedgerSnapshot is the immutable, deterministic result of a closed ledger.
type LedgerSnapshot struct {
	NCPU       int            `json:"ncpu"`
	WallCycles int64          `json:"wall_cycles"`
	Machine    MachineBuckets `json:"machine"`
	Loops      []LoopLedger   `json:"loops"`
}

// Snapshot renders the ledger's state deterministically: loops sorted by id,
// sites sorted by total discarded cycles (descending), then by key.
func (l *Ledger) Snapshot() *LedgerSnapshot {
	snap := &LedgerSnapshot{NCPU: l.ncpu, WallCycles: l.wall, Machine: l.mach}
	ids := make([]int64, 0, len(l.loops))
	for id := range l.loops {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ls := l.loops[id]
		ll := LoopLedger{LoopID: id, Entries: ls.entries, Buckets: ls.b}
		for _, s := range ls.sites {
			ll.Sites = append(ll.Sites, *s)
		}
		sort.Slice(ll.Sites, func(i, j int) bool {
			a, b := &ll.Sites[i], &ll.Sites[j]
			if da, db := a.Discarded(), b.Discarded(); da != db {
				return da > db
			}
			if a.Key.Kind != b.Key.Kind {
				return a.Key.Kind < b.Key.Kind
			}
			if a.Key.Method != b.Key.Method {
				return a.Key.Method < b.Key.Method
			}
			return a.Key.Off < b.Key.Off
		})
		snap.Loops = append(snap.Loops, ll)
	}
	return snap
}

// Attributed sums every attributed bucket (machine and per-loop, excluding
// the InFlight correction term).
func (s *LedgerSnapshot) Attributed() int64 {
	m := &s.Machine
	total := m.Serial + m.SerialGC + m.SerialException +
		m.Idle + m.Cancelled + m.Leaked
	for i := range s.Loops {
		total += s.Loops[i].Buckets.Total()
	}
	return total
}

// CheckConservation enforces the ledger's hard invariant:
//
//	Σ buckets == wall cycles × CPUs + InFlight
//
// with InFlight == 0 on every cleanly completed run. A violation means the
// ledger implementation itself double-charged or missed a sweep.
func (s *LedgerSnapshot) CheckConservation() error {
	want := s.WallCycles*int64(s.NCPU) + s.Machine.InFlight
	if got := s.Attributed(); got != want {
		return fmt.Errorf("obs: cycle ledger violates conservation: attributed %d, want %d (wall %d × %d CPUs + %d in flight)",
			got, want, s.WallCycles, s.NCPU, s.Machine.InFlight)
	}
	return nil
}

// Loop returns the snapshot of one loop (nil when the loop never ran).
func (s *LedgerSnapshot) Loop(id int64) *LoopLedger {
	for i := range s.Loops {
		if s.Loops[i].LoopID == id {
			return &s.Loops[i]
		}
	}
	return nil
}
