// Snapshot and checkpoint wire encodings.
//
// A snapshot envelope (KindSnapshot) carries one hydra.MachineSnapshot; a
// checkpoint envelope (KindCheckpoint) carries a core.Checkpoint — the
// snapshot plus the VM registry and the pipeline stage/label — and ends
// with a SHA-256 content hash over the payload, so a torn or bit-rotted
// checkpoint file is detected before a restore is attempted (a journal
// replayed after kill -9 must never resume from a half-written file).
// Both follow the codec's canonical rules: minimal varints, ascending
// collections as produced by the capture paths, decode∘encode identity.
package codec

import (
	"crypto/sha256"
	"fmt"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
	"jrpm/internal/vm"
)

// Snapshot/checkpoint envelope kinds (3 and below are program/options/result).
const (
	KindSnapshot   Kind = 4
	KindCheckpoint Kind = 5
)

// checkpointHashSize is the trailing content-hash length of a checkpoint
// envelope.
const checkpointHashSize = sha256.Size

// EncodeSnapshot renders a machine snapshot canonically.
func EncodeSnapshot(s *hydra.MachineSnapshot) []byte {
	return envelope(KindSnapshot, func(e *enc) { encSnapshot(e, s) })
}

// DecodeSnapshot parses a snapshot envelope.
func DecodeSnapshot(b []byte) (*hydra.MachineSnapshot, error) {
	d, err := openEnvelope(b, KindSnapshot)
	if err != nil {
		return nil, err
	}
	s := decSnapshot(d)
	if err := d.finish("snapshot"); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeCheckpoint renders a pipeline checkpoint canonically, with a
// trailing SHA-256 content hash over the payload.
func EncodeCheckpoint(cp *core.Checkpoint) []byte {
	b := envelope(KindCheckpoint, func(e *enc) {
		e.str(cp.Name)
		e.str(cp.Stage)
		e.str(cp.Label)
		encSnapshot(e, cp.Machine)
		encVMState(e, cp.VM)
	})
	sum := sha256.Sum256(b[envelopeHeaderSize:])
	return append(b, sum[:]...)
}

// DecodeCheckpoint parses and hash-verifies a checkpoint envelope.
func DecodeCheckpoint(b []byte) (*core.Checkpoint, error) {
	if len(b) < envelopeHeaderSize+checkpointHashSize {
		return nil, fmt.Errorf("%w: checkpoint envelope", ErrTruncated)
	}
	payload, tail := b[:len(b)-checkpointHashSize], b[len(b)-checkpointHashSize:]
	sum := sha256.Sum256(payload[envelopeHeaderSize:])
	if sum != [checkpointHashSize]byte(tail) {
		return nil, fmt.Errorf("%w: checkpoint content hash mismatch", ErrCorrupt)
	}
	d, err := openEnvelope(payload, KindCheckpoint)
	if err != nil {
		return nil, err
	}
	cp := &core.Checkpoint{
		Name:  d.str(),
		Stage: d.str(),
		Label: d.str(),
	}
	cp.Machine = decSnapshot(d)
	cp.VM = decVMState(d)
	if err := d.finish("checkpoint"); err != nil {
		return nil, err
	}
	return cp, nil
}

// envelopeHeaderSize is magic + version + kind.
const envelopeHeaderSize = 6

func encSnapshot(e *enc, s *hydra.MachineSnapshot) {
	e.u64(s.ImageFP)
	e.int(s.NCPU)
	e.i64(s.Clock)
	e.int(s.Master)
	e.i64s(s.Output)
	e.i64(s.GCCycles)
	e.i64(s.Instructions)
	e.i64(s.GCRuns)
	e.u64(uint64(len(s.OverflowBySTL)))
	for _, o := range s.OverflowBySTL {
		e.i64(o.LoopID)
		e.i64(o.Count)
	}
	e.i64(s.StormCount)
	e.i64(s.LastHoisted)
	e.bool(s.HadCtx)
	e.i64(s.NextCtxCheck)
	e.u64(uint64(len(s.CPUs)))
	for i := range s.CPUs {
		encCPUSnapshot(e, &s.CPUs[i])
	}
	encMemState(e, &s.Mem)
	encCacheState(e, &s.Caches)
	encUnitState(e, &s.TLS)
	e.bool(s.HasGuard)
	e.u64(uint64(len(s.Guard)))
	for i := range s.Guard {
		encGuardLoopState(e, &s.Guard[i])
	}
	encTier(e, &s.Tier)
	e.bool(s.T2 != nil)
	if s.T2 != nil {
		encTierCache(e, s.T2)
	}
}

func decSnapshot(d *dec) *hydra.MachineSnapshot {
	s := &hydra.MachineSnapshot{
		ImageFP:      d.u64(),
		NCPU:         d.int(),
		Clock:        d.i64(),
		Master:       d.int(),
		Output:       d.i64s(),
		GCCycles:     d.i64(),
		Instructions: d.i64(),
		GCRuns:       d.i64(),
	}
	if n := d.count(2); n > 0 {
		s.OverflowBySTL = make([]hydra.STLCount, n)
		for i := range s.OverflowBySTL {
			s.OverflowBySTL[i] = hydra.STLCount{LoopID: d.i64(), Count: d.i64()}
		}
	}
	s.StormCount = d.i64()
	s.LastHoisted = d.i64()
	s.HadCtx = d.bool()
	s.NextCtxCheck = d.i64()
	if n := d.count(8); n > 0 {
		s.CPUs = make([]hydra.CPUSnapshot, n)
		for i := range s.CPUs {
			decCPUSnapshot(d, &s.CPUs[i])
		}
	}
	decMemState(d, &s.Mem)
	decCacheState(d, &s.Caches)
	decUnitState(d, &s.TLS)
	s.HasGuard = d.bool()
	if n := d.count(8); n > 0 {
		s.Guard = make([]tls.GuardLoopState, n)
		for i := range s.Guard {
			decGuardLoopState(d, &s.Guard[i])
		}
	}
	decTier(d, &s.Tier)
	if d.bool() {
		s.T2 = decTierCache(d)
	}
	return s
}

func encCPUSnapshot(e *enc, c *hydra.CPUSnapshot) {
	for _, r := range c.Regs {
		e.i64(r)
	}
	e.int(c.PC)
	e.int(c.MethodID)
	e.u64(uint64(len(c.Frames)))
	for _, f := range c.Frames {
		e.int(f.RetMethod)
		e.int(f.RetPC)
		e.i64(f.SavedFP)
		e.i64(f.SavedSP)
	}
	e.int(c.State)
	e.i64(c.ReadyAt)
	e.int(c.SnapDepth)
	e.i64(c.SnapSP)
	e.i64(c.SnapFP)
	e.i64(c.PendingExKind)
	e.i64(c.PendingExRef)
	e.i64(c.PendingIO)
	e.bool(c.OverflowPending)
	e.int(c.GCAttempts)
	e.i64(c.Extra)
}

func decCPUSnapshot(d *dec, c *hydra.CPUSnapshot) {
	for i := range c.Regs {
		c.Regs[i] = d.i64()
	}
	c.PC = d.int()
	c.MethodID = d.int()
	if n := d.count(4); n > 0 {
		c.Frames = make([]hydra.FrameSnapshot, n)
		for i := range c.Frames {
			c.Frames[i] = hydra.FrameSnapshot{
				RetMethod: d.int(), RetPC: d.int(), SavedFP: d.i64(), SavedSP: d.i64(),
			}
		}
	}
	c.State = d.int()
	c.ReadyAt = d.i64()
	c.SnapDepth = d.int()
	c.SnapSP = d.i64()
	c.SnapFP = d.i64()
	c.PendingExKind = d.i64()
	c.PendingExRef = d.i64()
	c.PendingIO = d.i64()
	c.OverflowPending = d.bool()
	c.GCAttempts = d.int()
	c.Extra = d.i64()
}

func encMemState(e *enc, st *mem.State) {
	e.int(st.Size)
	e.u64(uint64(st.Split))
	e.u64(uint64(st.LoMax))
	e.u64(uint64(st.HiMin))
	e.i64s(st.Low)
	e.i64s(st.High)
}

func decMemState(d *dec, st *mem.State) {
	st.Size = d.int()
	st.Split = mem.Addr(d.u64())
	st.LoMax = mem.Addr(d.u64())
	st.HiMin = mem.Addr(d.u64())
	st.Low = d.i64s()
	st.High = d.i64s()
}

func encSetState(e *enc, st *mem.SetState) {
	e.u64(uint64(len(st.Tags)))
	for _, t := range st.Tags {
		e.u64(uint64(t))
	}
	e.u64(uint64(len(st.LRU)))
	for _, v := range st.LRU {
		e.u64(uint64(v))
	}
	e.u64(uint64(st.Clock))
}

func decSetState(d *dec, st *mem.SetState) {
	if n := d.count(1); n > 0 {
		st.Tags = make([]mem.Addr, n)
		for i := range st.Tags {
			st.Tags[i] = mem.Addr(d.u64())
		}
	}
	if n := d.count(1); n > 0 {
		st.LRU = make([]uint32, n)
		for i := range st.LRU {
			st.LRU[i] = uint32(d.u64())
		}
	}
	st.Clock = uint32(d.u64())
}

func encCacheState(e *enc, st *mem.CacheState) {
	e.u64(uint64(len(st.L1)))
	for i := range st.L1 {
		encSetState(e, &st.L1[i])
	}
	encSetState(e, &st.L2)
	e.i64(st.L1Hits)
	e.i64(st.L1Misses)
	e.i64(st.L2Hits)
	e.i64(st.L2Misses)
}

func decCacheState(d *dec, st *mem.CacheState) {
	if n := d.count(3); n > 0 {
		st.L1 = make([]mem.SetState, n)
		for i := range st.L1 {
			decSetState(d, &st.L1[i])
		}
	}
	decSetState(d, &st.L2)
	st.L1Hits = d.i64()
	st.L1Misses = d.i64()
	st.L2Hits = d.i64()
	st.L2Misses = d.i64()
}

func encUnitState(e *enc, st *tls.UnitState) {
	e.i64(st.Stats.Serial)
	e.i64(st.Stats.RunUsed)
	e.i64(st.Stats.WaitUsed)
	e.i64(st.Stats.Overhead)
	e.i64(st.Stats.RunViolated)
	e.i64(st.Stats.WaitViolated)
	e.i64(st.Commits)
	e.i64(st.Violations)
	e.i64(st.Overflows)
	e.int(st.MaxStoreLines)
	e.int(st.MaxLoadLines)
	e.i64(st.SumStoreLines)
	e.i64(st.SumLoadLines)
	e.i64(st.CommittedLoads)
	e.i64(st.CommittedStores)
}

func decUnitState(d *dec, st *tls.UnitState) {
	st.Stats.Serial = d.i64()
	st.Stats.RunUsed = d.i64()
	st.Stats.WaitUsed = d.i64()
	st.Stats.Overhead = d.i64()
	st.Stats.RunViolated = d.i64()
	st.Stats.WaitViolated = d.i64()
	st.Commits = d.i64()
	st.Violations = d.i64()
	st.Overflows = d.i64()
	st.MaxStoreLines = d.int()
	st.MaxLoadLines = d.int()
	st.SumStoreLines = d.i64()
	st.SumLoadLines = d.i64()
	st.CommittedLoads = d.i64()
	st.CommittedStores = d.i64()
}

func encGuardLoopState(e *enc, g *tls.GuardLoopState) {
	e.i64(g.LoopID)
	e.i64(g.Stats.Commits)
	e.i64(g.Stats.Violations)
	e.i64(g.Stats.Overflows)
	e.bool(g.Stats.Decertified)
	e.i64(g.Stats.Decerts)
	e.i64(g.Stats.Probes)
	e.i64(g.Stats.Recerts)
	e.i64(g.WCommits)
	e.i64(g.WViolations)
	e.i64(g.WOverflows)
	e.int(g.BadStreak)
	e.i64(g.Backoff)
	e.i64(g.Wait)
	e.bool(g.Probing)
}

func decGuardLoopState(d *dec, g *tls.GuardLoopState) {
	g.LoopID = d.i64()
	g.Stats.Commits = d.i64()
	g.Stats.Violations = d.i64()
	g.Stats.Overflows = d.i64()
	g.Stats.Decertified = d.bool()
	g.Stats.Decerts = d.i64()
	g.Stats.Probes = d.i64()
	g.Stats.Recerts = d.i64()
	g.WCommits = d.i64()
	g.WViolations = d.i64()
	g.WOverflows = d.i64()
	g.BadStreak = d.int()
	g.Backoff = d.i64()
	g.Wait = d.i64()
	g.Probing = d.bool()
}

func encTierCache(e *enc, t *hydra.TierCacheSnapshot) {
	e.bool(t.Resume)
	e.i64(int64(t.LastEntry))
	e.u64(uint64(len(t.Methods)))
	for i := range t.Methods {
		m := &t.Methods[i]
		e.int(m.Method)
		e.u64(uint64(len(m.Blocks)))
		for _, b := range m.Blocks {
			e.i64(int64(b.Entry))
			e.i64(int64(b.Succ0))
			e.i64(int64(b.Succ1))
		}
	}
}

func decTierCache(d *dec) *hydra.TierCacheSnapshot {
	t := &hydra.TierCacheSnapshot{
		Resume:    d.bool(),
		LastEntry: int32(d.i64()),
	}
	if n := d.count(2); n > 0 {
		t.Methods = make([]hydra.TierMethodSnapshot, n)
		for i := range t.Methods {
			m := &t.Methods[i]
			m.Method = d.int()
			if bn := d.count(3); bn > 0 {
				m.Blocks = make([]hydra.TierBlockSnapshot, bn)
				for j := range m.Blocks {
					m.Blocks[j] = hydra.TierBlockSnapshot{
						Entry: int32(d.i64()), Succ0: int32(d.i64()), Succ1: int32(d.i64()),
					}
				}
			}
		}
	}
	return t
}

func encVMState(e *enc, st *vm.State) {
	e.u64(uint64(len(st.Blocks)))
	for _, b := range st.Blocks {
		e.u64(uint64(b.Addr))
		e.i64(b.Words)
	}
	e.i64(st.Allocs)
	e.i64(st.AllocWords)
	e.i64(st.GCs)
	e.i64(st.LastLive)
	e.i64(st.LastFreed)
}

func decVMState(d *dec) *vm.State {
	st := &vm.State{}
	if n := d.count(2); n > 0 {
		st.Blocks = make([]vm.BlockSpan, n)
		for i := range st.Blocks {
			st.Blocks[i] = vm.BlockSpan{Addr: mem.Addr(d.u64()), Words: d.i64()}
		}
	}
	st.Allocs = d.i64()
	st.AllocWords = d.i64()
	st.GCs = d.i64()
	st.LastLive = d.i64()
	st.LastFreed = d.i64()
	return st
}

// CPUSnapshot encodes exactly isa.NumRegs registers with no count on the
// wire; tie the two at compile time.
var _ [isa.NumRegs]int64 = hydra.CPUSnapshot{}.Regs
