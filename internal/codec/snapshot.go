// Snapshot and checkpoint wire encodings.
//
// A snapshot envelope (KindSnapshot) carries one hydra.MachineSnapshot; a
// checkpoint envelope (KindCheckpoint) carries a core.Checkpoint — the
// snapshot plus the VM registry and the pipeline stage/label — and ends
// with a SHA-256 content hash over the payload, so a torn or bit-rotted
// checkpoint file is detected before a restore is attempted (a journal
// replayed after kill -9 must never resume from a half-written file).
// Both follow the codec's canonical rules: minimal varints, narrowed
// fields in range, ascending collections as produced by the capture
// paths, decode∘encode identity. The hash detects torn files, not
// non-canonical ones: the range and ordering rules reject those.
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

// checkpointHashSize is the trailing content-hash length of a checkpoint
// envelope.
const checkpointHashSize = sha256.Size

// EncodeSnapshot renders a machine snapshot canonically.
func EncodeSnapshot(s *hydra.MachineSnapshot) []byte {
	return encode(KindSnapshot, s, (*coder).snapshot)
}

// DecodeSnapshot parses a snapshot envelope.
func DecodeSnapshot(b []byte) (*hydra.MachineSnapshot, error) {
	s := &hydra.MachineSnapshot{}
	if err := decode(b, KindSnapshot, s, (*coder).snapshot); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeCheckpoint renders a pipeline checkpoint canonically, with a
// trailing SHA-256 content hash over the payload.
func EncodeCheckpoint(cp *core.Checkpoint) []byte {
	b := encode(KindCheckpoint, cp, (*coder).checkpoint)
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
	cp := &core.Checkpoint{}
	if err := decode(payload, KindCheckpoint, cp, (*coder).checkpoint); err != nil {
		return nil, err
	}
	return cp, nil
}

func (c *coder) checkpoint(cp *core.Checkpoint) {
	c.str(&cp.Name)
	c.str(&cp.Stage)
	c.str(&cp.Label)
	c.snapshot(ptr(c, &cp.Machine))
	c.vmState(ptr(c, &cp.VM))
}

func (c *coder) snapshot(s *hydra.MachineSnapshot) {
	c.u64(&s.ImageFP)
	c.int(&s.NCPU)
	c.i64(&s.Clock)
	c.int(&s.Master)
	c.i64s(&s.Output)
	c.i64(&s.GCCycles)
	c.i64(&s.Instructions)
	c.i64(&s.GCRuns)
	list(c, &s.OverflowBySTL, 2, func(c *coder, o *hydra.STLCount) {
		c.i64(&o.LoopID)
		c.i64(&o.Count)
	})
	c.i64(&s.StormCount)
	c.i64(&s.LastHoisted)
	c.bool(&s.HadCtx)
	c.i64(&s.NextCtxCheck)
	list(c, &s.CPUs, 8, (*coder).cpu)
	c.memState(&s.Mem)
	c.cacheState(&s.Caches)
	c.unitState(&s.TLS)
	c.bool(&s.HasGuard)
	list(c, &s.Guard, 8, (*coder).guardLoopState)
	c.tier(&s.Tier)
	optional(c, &s.T2, (*coder).tierCache)
}

// cpu walks exactly isa.NumRegs registers, with no count on the wire.
func (c *coder) cpu(p *hydra.CPUSnapshot) {
	for i := range p.Regs {
		c.i64(&p.Regs[i])
	}
	c.int(&p.PC)
	c.int(&p.MethodID)
	list(c, &p.Frames, 4, func(c *coder, f *hydra.FrameSnapshot) {
		c.int(&f.RetMethod)
		c.int(&f.RetPC)
		c.i64(&f.SavedFP)
		c.i64(&f.SavedSP)
	})
	c.int(&p.State)
	c.i64(&p.ReadyAt)
	c.int(&p.SnapDepth)
	c.i64(&p.SnapSP)
	c.i64(&p.SnapFP)
	c.i64(&p.PendingExKind)
	c.i64(&p.PendingExRef)
	c.i64(&p.PendingIO)
	c.bool(&p.OverflowPending)
	c.int(&p.GCAttempts)
	c.i64(&p.Extra)
}

// The register file travels without a count; tie its length to isa.NumRegs
// at compile time.
var _ [isa.NumRegs]int64 = hydra.CPUSnapshot{}.Regs

func (c *coder) memState(st *mem.State) {
	c.int(&st.Size)
	u32(c, &st.Split)
	u32(c, &st.LoMax)
	u32(c, &st.HiMin)
	c.i64s(&st.Low)
	c.i64s(&st.High)
}

func (c *coder) setState(st *mem.SetState) {
	list(c, &st.Tags, 1, u32[mem.Addr])
	list(c, &st.LRU, 1, u32[uint32])
	u32(c, &st.Clock)
}

func (c *coder) cacheState(st *mem.CacheState) {
	list(c, &st.L1, 3, (*coder).setState)
	c.setState(&st.L2)
	c.i64(&st.L1Hits)
	c.i64(&st.L1Misses)
	c.i64(&st.L2Hits)
	c.i64(&st.L2Misses)
}

func (c *coder) unitState(st *tls.UnitState) {
	c.stateStats(&st.Stats)
	c.i64(&st.Commits)
	c.i64(&st.Violations)
	c.i64(&st.Overflows)
	c.int(&st.MaxStoreLines)
	c.int(&st.MaxLoadLines)
	c.i64(&st.SumStoreLines)
	c.i64(&st.SumLoadLines)
	c.i64(&st.CommittedLoads)
	c.i64(&st.CommittedStores)
}

func (c *coder) guardLoopState(g *tls.GuardLoopState) {
	c.i64(&g.LoopID)
	c.guardLoopStats(&g.Stats)
	c.i64(&g.WCommits)
	c.i64(&g.WViolations)
	c.i64(&g.WOverflows)
	c.int(&g.BadStreak)
	c.i64(&g.Backoff)
	c.i64(&g.Wait)
	c.bool(&g.Probing)
}

func (c *coder) tierCache(t *hydra.TierCacheSnapshot) {
	c.bool(&t.Resume)
	c.i32(&t.LastEntry)
	list(c, &t.Methods, 2, func(c *coder, m *hydra.TierMethodSnapshot) {
		c.int(&m.Method)
		list(c, &m.Blocks, 3, func(c *coder, b *hydra.TierBlockSnapshot) {
			c.i32(&b.Entry)
			c.i32(&b.Succ0)
			c.i32(&b.Succ1)
		})
	})
}

func (c *coder) vmState(st *vm.State) {
	list(c, &st.Blocks, 2, func(c *coder, b *vm.BlockSpan) {
		u32(c, &b.Addr)
		c.i64(&b.Words)
	})
	c.i64(&st.Allocs)
	c.i64(&st.AllocWords)
	c.i64(&st.GCs)
	c.i64(&st.LastLive)
	c.i64(&st.LastFreed)
}
