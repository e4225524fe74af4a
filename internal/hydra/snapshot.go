// Safepoint snapshots of the whole machine.
//
// A safepoint is the serial fast-loop predicate: exactly one CPU in
// stateRunning and thread speculation inactive. At that point no STL is
// mid-flight (curSTL/outerSTL are nil, every tls thread is between
// attempts), so the machine's observable state is exactly: the clock, the
// per-CPU architectural contexts, the dirty spans of simulated memory, the
// cache tag arrays, the tls unit's cumulative counters, the guard's
// per-loop decision state, and the tier-2 statistics. Snapshot captures all
// of it; Restore writes it into a freshly built machine for the same image,
// and the resumed Run is bit-identical to the uninterrupted one — same
// final clock, same violation counts, same output.
//
// Snapshots are pure observation: taking one never advances the clock or
// touches a counter. The checkpoint latch in the two fast loops costs one
// nil compare when disabled (the same discipline as the recorder and
// ledger hooks).
package hydra

import (
	"fmt"
	"sort"
	"sync/atomic"

	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
)

// ErrSnapshotUnsupported marks a machine whose attached observers preclude
// snapshotting (tracer, flight recorder, fault injector, or ledger — all
// carry unbounded mid-run state that is not worth serializing; runs that
// need them re-execute from the start instead).
var ErrSnapshotUnsupported = fmt.Errorf("hydra: snapshot unsupported with tracer/recorder/injector/ledger attached")

// ErrNotSafepoint marks a snapshot or restore attempted outside a
// safepoint (speculation active, an STL open, or the machine halted).
var ErrNotSafepoint = fmt.Errorf("hydra: not at a safepoint")

// FrameSnapshot is one call-stack entry.
type FrameSnapshot struct {
	RetMethod int
	RetPC     int
	SavedFP   int64
	SavedSP   int64
}

// CPUSnapshot is one core's complete context. The deferred-fault pointer is
// not carried: it is only read in stateWaitException, which cannot be any
// CPU's state at a safepoint.
type CPUSnapshot struct {
	Regs     [isa.NumRegs]int64
	PC       int
	MethodID int

	Frames  []FrameSnapshot
	State   int
	ReadyAt int64

	SnapDepth int
	SnapSP    int64
	SnapFP    int64

	PendingExKind   int64
	PendingExRef    int64
	PendingIO       int64
	OverflowPending bool
	GCAttempts      int
	Extra           int64
}

// STLCount is one loop's overflow-stall count (the OverflowBySTL map,
// sorted by loop id for canonical encoding).
type STLCount struct {
	LoopID int64
	Count  int64
}

// TierBlockSnapshot records one compiled block's identity — its entry pc —
// plus its memoized trace-link targets, so a restored engine re-links
// exactly the successors the original had (Linked counts are wire-carried
// through TierStats and must not drift).
type TierBlockSnapshot struct {
	Entry int32
	Succ0 int32 // linked successor entry pc, -1 when unlinked
	Succ1 int32
}

// TierMethodSnapshot is one method's live block-cache contents.
type TierMethodSnapshot struct {
	Method int
	Blocks []TierBlockSnapshot // sorted by entry pc
}

// TierCacheSnapshot is the tier-2 engine's warm state. Blocks are
// recompiled (not serialized) at restore: compilation is deterministic from
// the image, so only the set of cached entry pcs and the link topology
// travel. Resume marks a snapshot taken inside runTier2; the restored run
// re-enters the engine without recounting the promotion, with LastEntry as
// the trace-link predecessor (-1 for none).
type TierCacheSnapshot struct {
	Methods   []TierMethodSnapshot
	Resume    bool
	LastEntry int32
}

// MachineSnapshot is the complete safepoint state of a machine.
type MachineSnapshot struct {
	ImageFP uint64 // fingerprint of the image this state belongs to
	NCPU    int

	Clock        int64
	Master       int
	Output       []int64
	GCCycles     int64
	Instructions int64
	GCRuns       int64

	OverflowBySTL []STLCount
	StormCount    int64
	LastHoisted   int64

	// HadCtx records whether the run was cancellable; the poll schedule
	// (nextCtxCheck) perturbs tier-2 demotion decisions, so a resumed run
	// must agree on cancellability with the original.
	HadCtx       bool
	NextCtxCheck int64

	CPUs []CPUSnapshot

	Mem    mem.State
	Caches mem.CacheState
	TLS    tls.UnitState

	HasGuard bool
	Guard    []tls.GuardLoopState

	Tier TierStats
	T2   *TierCacheSnapshot // nil when the engine is disabled
}

// ImageFingerprint hashes the image's executable content (FNV-1a over every
// instruction word, frame geometry, entry point and statics count), so a
// snapshot refuses to restore against a different program.
func ImageFingerprint(img *Image) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(len(img.Methods)))
	mix(uint64(img.Main))
	mix(uint64(img.Statics))
	for _, meth := range img.Methods {
		mix(uint64(meth.FrameWords))
		mix(uint64(len(meth.Code)))
		for i := range meth.Code {
			in := &meth.Code[i]
			mix(uint64(in.Op)<<32 | uint64(in.Rd)<<16 | uint64(in.Rs)<<8 | uint64(in.Rt))
			mix(uint64(in.Imm))
			mix(uint64(in.Imm2))
			mix(uint64(in.Target))
		}
	}
	mix(uint64(len(img.STLs)))
	return h
}

// Checkpointer requests asynchronous safepoint snapshots from a running
// machine. Request may be called from any goroutine; the machine polls the
// armed flag at safepoint edges (the same stride as cancellation polls) and,
// when armed, captures a snapshot on its own goroutine and hands it to Sink.
type Checkpointer struct {
	armed atomic.Bool

	// Sink receives each captured snapshot, called on the run goroutine at
	// the safepoint. It must not retain the machine; the snapshot itself is
	// fully detached. Set before the run starts.
	Sink func(*MachineSnapshot)

	// Stride is the minimum simulated-cycle distance between armed-flag
	// polls (0 = CancelCheckStride). Smaller strides bound checkpoint
	// latency tighter at the cost of more safepoint polls; tests use tiny
	// strides to exercise safepoints in short programs.
	Stride int64
}

// Request arms the checkpointer: the next safepoint edge captures one
// snapshot. Requests collapse (arming an armed checkpointer is a no-op).
func (cp *Checkpointer) Request() { cp.armed.Store(true) }

// checkpointNow fires the safepoint latch: reschedule the next poll, and if
// a snapshot was requested, capture and deliver it. Called only from the
// serial fast loops, where the safepoint predicate already holds.
func (m *Machine) checkpointNow(inTier2 bool, last *t2block) {
	m.ckptNext = m.Clock + m.ckptStride
	if !m.ckpt.armed.CompareAndSwap(true, false) {
		return
	}
	s, err := m.snapshotAt(inTier2, last)
	if err != nil {
		// Unsupported configuration (observer attached): disarm silently;
		// callers gate checkpointing off for such runs.
		return
	}
	if m.ckpt.Sink != nil {
		m.ckpt.Sink(s)
	}
}

// Snapshot captures the machine's state at a safepoint. It errors when the
// machine is not at one (speculation active, an STL open, halted or failed)
// or when an attached observer precludes snapshotting.
func (m *Machine) Snapshot() (*MachineSnapshot, error) {
	return m.snapshotAt(false, nil)
}

func (m *Machine) snapshotAt(inTier2 bool, last *t2block) (*MachineSnapshot, error) {
	if !m.snapshotable {
		return nil, ErrSnapshotUnsupported
	}
	if m.halted || m.err != nil {
		return nil, fmt.Errorf("%w: machine halted (err: %v)", ErrNotSafepoint, m.err)
	}
	if m.curSTL != nil || m.outerSTL != nil {
		return nil, fmt.Errorf("%w: an STL is open", ErrNotSafepoint)
	}
	unit, err := m.TLS.CaptureState()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotSafepoint, err)
	}
	s := &MachineSnapshot{
		ImageFP:      ImageFingerprint(m.Image),
		NCPU:         len(m.CPUs),
		Clock:        m.Clock,
		Master:       m.Master,
		Output:       append([]int64(nil), m.Output...),
		GCCycles:     m.GCCycles,
		Instructions: m.Instructions,
		GCRuns:       m.GCRuns,
		StormCount:   m.stormCount,
		LastHoisted:  m.lastHoisted,
		HadCtx:       m.ctxDone != nil,
		NextCtxCheck: m.nextCtxCheck,
		Mem:          m.Mem.CaptureState(),
		Caches:       m.Caches.CaptureState(),
		TLS:          unit,
		HasGuard:     m.Guard != nil,
		Guard:        m.Guard.CaptureState(),
		Tier:         m.Tier,
	}
	for id, n := range m.OverflowBySTL {
		s.OverflowBySTL = append(s.OverflowBySTL, STLCount{LoopID: id, Count: n})
	}
	sort.Slice(s.OverflowBySTL, func(i, j int) bool { return s.OverflowBySTL[i].LoopID < s.OverflowBySTL[j].LoopID })
	for _, c := range m.CPUs {
		cs := CPUSnapshot{
			Regs:            c.Regs,
			PC:              c.PC,
			MethodID:        c.MethodID,
			State:           int(c.state),
			ReadyAt:         c.readyAt,
			SnapDepth:       c.snap.depth,
			SnapSP:          c.snap.sp,
			SnapFP:          c.snap.fp,
			PendingExKind:   c.pendingExKind,
			PendingExRef:    c.pendingExRef,
			PendingIO:       c.pendingIO,
			OverflowPending: c.overflowPending,
			GCAttempts:      c.gcAttempts,
			Extra:           c.extra,
		}
		for _, f := range c.frames {
			cs.Frames = append(cs.Frames, FrameSnapshot{
				RetMethod: f.retMethod, RetPC: f.retPC, SavedFP: f.savedFP, SavedSP: f.savedSP,
			})
		}
		s.CPUs = append(s.CPUs, cs)
	}
	if m.t2 != nil {
		s.T2 = m.captureTier2(inTier2, last)
	}
	return s, nil
}

// captureTier2 records the live block-cache topology: per method, the entry
// pcs of every cached block and their trace links.
func (m *Machine) captureTier2(inTier2 bool, last *t2block) *TierCacheSnapshot {
	t := m.t2
	ts := &TierCacheSnapshot{Resume: inTier2, LastEntry: -1}
	if last != nil {
		ts.LastEntry = last.entry
	}
	for mid := range t.methods {
		tm := &t.methods[mid]
		if tm.gen != t.gen {
			continue
		}
		var ms TierMethodSnapshot
		ms.Method = mid
		for pc, b := range tm.blocks {
			if b == nil {
				continue
			}
			ms.Blocks = append(ms.Blocks, TierBlockSnapshot{
				Entry: int32(pc), Succ0: b.succPC[0], Succ1: b.succPC[1],
			})
		}
		if len(ms.Blocks) > 0 {
			ts.Methods = append(ts.Methods, ms)
		}
	}
	return ts
}

// Restore writes a snapshot into a freshly built, never-run machine for the
// same image and configuration. The machine must not have Booted (Restore
// replaces every CPU context, and Run skips Boot when CPU 0 is already
// runnable). After Restore, Run continues the original execution
// bit-identically.
func (m *Machine) Restore(s *MachineSnapshot) error {
	if !m.snapshotable {
		return ErrSnapshotUnsupported
	}
	if m.halted || m.err != nil {
		return fmt.Errorf("%w: restore into a halted machine", ErrNotSafepoint)
	}
	if fp := ImageFingerprint(m.Image); fp != s.ImageFP {
		return fmt.Errorf("hydra: restore: image fingerprint mismatch: snapshot %016x, machine %016x", s.ImageFP, fp)
	}
	if len(m.CPUs) != s.NCPU {
		return fmt.Errorf("hydra: restore: NCPU mismatch: snapshot %d, machine %d", s.NCPU, len(m.CPUs))
	}
	if (m.ctxDone != nil) != s.HadCtx {
		return fmt.Errorf("hydra: restore: cancellability mismatch: snapshot ctx=%v, machine ctx=%v (the poll schedule steers tier-2 demotions)", s.HadCtx, m.ctxDone != nil)
	}
	if (m.Guard != nil) != s.HasGuard {
		return fmt.Errorf("hydra: restore: guard mismatch: snapshot guard=%v, machine guard=%v", s.HasGuard, m.Guard != nil)
	}
	if (m.t2 != nil) != (s.T2 != nil) {
		return fmt.Errorf("hydra: restore: tier-2 mismatch: snapshot t2=%v, machine t2=%v", s.T2 != nil, m.t2 != nil)
	}
	if err := m.Mem.RestoreState(s.Mem); err != nil {
		return fmt.Errorf("hydra: restore: %w", err)
	}
	if err := m.Caches.RestoreState(s.Caches); err != nil {
		return fmt.Errorf("hydra: restore: %w", err)
	}
	if err := m.TLS.RestoreState(s.TLS); err != nil {
		return fmt.Errorf("hydra: restore: %w", err)
	}
	if err := m.Guard.RestoreState(s.Guard); err != nil {
		return fmt.Errorf("hydra: restore: %w", err)
	}
	m.Clock = s.Clock
	m.Master = s.Master
	m.Output = append(m.Output[:0], s.Output...)
	m.GCCycles = s.GCCycles
	m.Instructions = s.Instructions
	m.GCRuns = s.GCRuns
	m.stormCount = s.StormCount
	m.lastHoisted = s.LastHoisted
	if m.ctxDone != nil {
		m.nextCtxCheck = s.NextCtxCheck
	}
	m.OverflowBySTL = make(map[int64]int64, len(s.OverflowBySTL))
	for _, e := range s.OverflowBySTL {
		m.OverflowBySTL[e.LoopID] = e.Count
	}
	for i, cs := range s.CPUs {
		c := m.CPUs[i]
		c.Regs = cs.Regs
		c.PC = cs.PC
		c.MethodID = cs.MethodID
		c.frames = c.frames[:0]
		for _, f := range cs.Frames {
			c.frames = append(c.frames, frame{
				retMethod: f.RetMethod, retPC: f.RetPC, savedFP: f.SavedFP, savedSP: f.SavedSP,
			})
		}
		c.state = cpuState(cs.State)
		c.readyAt = cs.ReadyAt
		c.snap = snapshot{depth: cs.SnapDepth, sp: cs.SnapSP, fp: cs.SnapFP}
		c.pendingExKind = cs.PendingExKind
		c.pendingExRef = cs.PendingExRef
		c.pendingFault = nil
		c.pendingIO = cs.PendingIO
		c.overflowPending = cs.OverflowPending
		c.gcAttempts = cs.GCAttempts
		c.extra = cs.Extra
	}
	m.Tier = s.Tier
	if s.T2 != nil {
		if err := m.restoreTier2(s.T2); err != nil {
			return err
		}
	}
	// If the new run checkpoints too, schedule its first poll one stride out
	// (the original's latch state is not observable and need not travel).
	if m.ckpt != nil {
		m.ckptNext = m.Clock + m.ckptStride
	}
	m.booted = true // Run must continue the restored contexts, never re-Boot
	return nil
}

// restoreTier2 recompiles the snapshot's cached blocks directly (bypassing
// lookup, so the restored Tier counters stay exactly the snapshot's) and
// re-links trace successors.
func (m *Machine) restoreTier2(ts *TierCacheSnapshot) error {
	t := m.t2
	for _, ms := range ts.Methods {
		mid := ms.Method
		if mid < 0 || mid >= len(m.Image.Methods) {
			return fmt.Errorf("hydra: restore: tier-2 snapshot references unknown method %d", mid)
		}
		if mid >= len(t.methods) {
			grown := make([]t2method, mid+1)
			copy(grown, t.methods)
			t.methods = grown
		}
		tm := &t.methods[mid]
		code := m.Image.Method(mid).Code
		tm.gen = t.gen
		tm.blocks = clearBlocks(tm.blocks, len(code))
		tm.spec = tm.spec[:0]
		for _, bs := range ms.Blocks {
			if bs.Entry < 0 || int(bs.Entry) >= len(code) {
				return fmt.Errorf("hydra: restore: tier-2 block entry %d out of range for method %d", bs.Entry, mid)
			}
			tm.blocks[bs.Entry] = t.compile(code, int(bs.Entry), false)
		}
		for _, bs := range ms.Blocks {
			b := tm.blocks[bs.Entry]
			for li, spc := range [2]int32{bs.Succ0, bs.Succ1} {
				if spc < 0 {
					continue
				}
				if int(spc) >= len(tm.blocks) || tm.blocks[spc] == nil {
					return fmt.Errorf("hydra: restore: tier-2 link %d->%d dangles in method %d", bs.Entry, spc, mid)
				}
				b.succPC[li] = spc
				b.succ[li] = tm.blocks[spc]
			}
		}
	}
	if ts.Resume {
		m.t2resume = true
		if ts.LastEntry >= 0 {
			// The predecessor block lives in the running CPU's method (trace
			// links never cross a CALL/RET, which always demote).
			var solo *CPU
			for _, c := range m.CPUs {
				if c.state == stateRunning {
					solo = c
					break
				}
			}
			if solo == nil {
				return fmt.Errorf("hydra: restore: tier-2 resume with no runnable CPU")
			}
			mid := solo.MethodID
			if mid >= len(t.methods) || t.methods[mid].gen != t.gen ||
				int(ts.LastEntry) >= len(t.methods[mid].blocks) || t.methods[mid].blocks[ts.LastEntry] == nil {
				return fmt.Errorf("hydra: restore: tier-2 resume block %d missing in method %d", ts.LastEntry, mid)
			}
			m.t2resumeLast = t.methods[mid].blocks[ts.LastEntry]
		}
	}
	return nil
}
