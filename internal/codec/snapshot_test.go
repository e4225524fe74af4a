package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
	"jrpm/internal/vm"
)

// vmStateForTest is a synthetic VM registry with a few heap blocks.
var vmStateForTest = vm.State{
	Blocks:     []vm.BlockSpan{{Addr: 64, Words: 8}, {Addr: 96, Words: 16}},
	Allocs:     5,
	AllocWords: 24,
	GCs:        1,
	LastLive:   20,
	LastFreed:  4,
}

// syntheticSnapshot fills every optional branch of the snapshot encoding:
// overflow counts, call frames, guard state, a warm tier-2 cache with a
// resume marker, and both memory spans.
func syntheticSnapshot() *hydra.MachineSnapshot {
	s := &hydra.MachineSnapshot{
		ImageFP:      0xdeadbeefcafef00d,
		NCPU:         4,
		Clock:        1_234_567,
		Master:       2,
		Output:       []int64{9, -4, 0, 77},
		GCCycles:     4096,
		Instructions: 999_999,
		GCRuns:       3,
		OverflowBySTL: []hydra.STLCount{
			{LoopID: -7, Count: 2}, {LoopID: 3, Count: 11}, {LoopID: 90, Count: 1},
		},
		StormCount:   5,
		LastHoisted:  12,
		HadCtx:       true,
		NextCtxCheck: 1_300_000,
		Mem: mem.State{
			Size: 64, Split: 32, LoMax: 3, HiMin: 60,
			Low: []int64{1, -2, 3}, High: []int64{4, 0, -6, 7},
		},
		Caches: mem.CacheState{
			L1: []mem.SetState{
				{Tags: []mem.Addr{1, 2}, LRU: []uint32{3, 4}, Clock: 5},
				{Tags: []mem.Addr{6}, LRU: []uint32{7}, Clock: 8},
			},
			L2:     mem.SetState{Tags: []mem.Addr{9, 10, 11}, LRU: []uint32{1, 2, 3}, Clock: 99},
			L1Hits: 100, L1Misses: 10, L2Hits: 8, L2Misses: 2,
		},
		TLS: tls.UnitState{
			Stats:   tls.StateStats{Serial: 1, RunUsed: 2, WaitUsed: 3, Overhead: 4, RunViolated: 5, WaitViolated: 6},
			Commits: 7, Violations: 8, Overflows: 9,
			MaxStoreLines: 10, MaxLoadLines: 11,
			SumStoreLines: 12, SumLoadLines: 13,
			CommittedLoads: 14, CommittedStores: 15,
		},
		HasGuard: true,
		Guard: []tls.GuardLoopState{
			{
				LoopID:   3,
				Stats:    tls.GuardLoopStats{Commits: 20, Violations: 2, Overflows: 1, Decertified: true, Decerts: 1, Probes: 4, Recerts: 1},
				WCommits: 5, WViolations: 1, WOverflows: 0,
				BadStreak: 2, Backoff: 64, Wait: 32, Probing: true,
			},
			{LoopID: 44},
		},
		T2: &hydra.TierCacheSnapshot{
			Resume:    true,
			LastEntry: 17,
			Methods: []hydra.TierMethodSnapshot{
				{Method: 0, Blocks: []hydra.TierBlockSnapshot{{Entry: 0, Succ0: 9, Succ1: -1}, {Entry: 9, Succ0: -1, Succ1: -1}}},
				{Method: 3, Blocks: []hydra.TierBlockSnapshot{{Entry: 17, Succ0: -1, Succ1: 17}}},
			},
		},
	}
	s.Tier = hydra.TierStats{Promotions: 1, BlocksCompiled: 2, CacheHits: 3, CacheMisses: 4, Linked: 5, InterpSteps: 6}
	for i := range s.Tier.Demote {
		s.Tier.Demote[i] = int64(i * 3)
	}
	for i := 0; i < 4; i++ {
		c := hydra.CPUSnapshot{
			PC: i * 7, MethodID: i, State: 1, ReadyAt: int64(i) * 100,
			SnapDepth: i, SnapSP: int64(40 - i), SnapFP: int64(30 - i),
			PendingExKind: int64(i % 2), PendingExRef: 5, PendingIO: 6,
			OverflowPending: i == 2, GCAttempts: i, Extra: int64(-i),
		}
		for r := range c.Regs {
			c.Regs[r] = int64(r*i) - 3
		}
		if i > 0 {
			c.Frames = []hydra.FrameSnapshot{
				{RetMethod: 0, RetPC: 4, SavedFP: 8, SavedSP: 16},
				{RetMethod: i, RetPC: 2, SavedFP: 24, SavedSP: 32},
			}
		}
		s.CPUs = append(s.CPUs, c)
	}
	return s
}

// capturedCheckpoints runs a progen pipeline with checkpointing armed at
// every safepoint edge and returns the captured checkpoints plus the
// straight-run wire result they must reproduce.
func capturedCheckpoints(t testing.TB, seed int64) ([]*core.Checkpoint, []byte) {
	t.Helper()
	bp := testProgram(t, seed)
	opts := core.DefaultOptions()
	ref, err := core.Run(bp, opts)
	if err != nil {
		t.Fatalf("seed %d: straight run: %v", seed, err)
	}
	var cps []*core.Checkpoint
	cc := &core.CheckpointController{Stride: 2048, Label: "rung-test"}
	cc.OnCheckpoint = func(cp *core.Checkpoint, _ int64) {
		cps = append(cps, cp)
		cc.Request()
	}
	copts := opts
	copts.Checkpoint = cc
	cc.Request()
	if _, err := core.Run(bp, copts); err != nil {
		t.Fatalf("seed %d: capture run: %v", seed, err)
	}
	if len(cps) == 0 {
		t.Fatalf("seed %d: no checkpoints captured", seed)
	}
	return cps, EncodeResult(ref)
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := syntheticSnapshot()
	wire := EncodeSnapshot(s)
	got, err := DecodeSnapshot(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(wire, EncodeSnapshot(got)) {
		t.Fatal("snapshot decode∘encode is not the identity")
	}
	if got.Clock != s.Clock || got.ImageFP != s.ImageFP || len(got.CPUs) != len(s.CPUs) {
		t.Fatal("snapshot fields changed across round-trip")
	}
	if got.T2 == nil || !got.T2.Resume || got.T2.LastEntry != 17 {
		t.Fatalf("tier-2 state changed across round-trip: %+v", got.T2)
	}
	if len(got.Guard) != 2 || !got.Guard[0].Stats.Decertified {
		t.Fatal("guard state changed across round-trip")
	}

	// Optional branches off: no guard, no tier-2, no frames, no overflow.
	bare := &hydra.MachineSnapshot{NCPU: 1, CPUs: make([]hydra.CPUSnapshot, 1)}
	bw := EncodeSnapshot(bare)
	bg, err := DecodeSnapshot(bw)
	if err != nil {
		t.Fatalf("bare decode: %v", err)
	}
	if !bytes.Equal(bw, EncodeSnapshot(bg)) {
		t.Fatal("bare snapshot decode∘encode is not the identity")
	}
	if bg.T2 != nil || bg.Guard != nil {
		t.Fatal("bare snapshot grew optional state across round-trip")
	}
}

// TestCheckpointRoundTrip proves a captured checkpoint survives the wire:
// decode∘encode is the identity, and — the property the durable job layer
// rests on — resuming from the decoded copy reproduces the straight run's
// wire result bit-identically.
func TestCheckpointRoundTrip(t *testing.T) {
	cps, refWire := capturedCheckpoints(t, 3)
	bp := testProgram(t, 3)
	sample := []*core.Checkpoint{cps[0], cps[len(cps)/2], cps[len(cps)-1]}
	for i, cp := range sample {
		wire := EncodeCheckpoint(cp)
		got, err := DecodeCheckpoint(wire)
		if err != nil {
			t.Fatalf("checkpoint %d: decode: %v", i, err)
		}
		if !bytes.Equal(wire, EncodeCheckpoint(got)) {
			t.Fatalf("checkpoint %d: decode∘encode is not the identity", i)
		}
		if got.Name != cp.Name || got.Stage != cp.Stage || got.Label != "rung-test" {
			t.Fatalf("checkpoint %d: header changed: %q/%q/%q", i, got.Name, got.Stage, got.Label)
		}
		res, err := core.ResumeTLS(bp, core.DefaultOptions(), got)
		if err != nil {
			t.Fatalf("checkpoint %d (stage %s, clock %d): resume from decoded copy: %v",
				i, got.Stage, got.Machine.Clock, err)
		}
		if !bytes.Equal(EncodeResult(res), refWire) {
			t.Fatalf("checkpoint %d (stage %s): resume from decoded copy diverged from straight run", i, got.Stage)
		}
	}
}

// TestCheckpointHashRejectsCorruption flips every byte of an encoded
// checkpoint and asserts each flip is rejected with a typed error — the
// content hash makes a torn or bit-rotted checkpoint file detectable before
// any restore is attempted.
func TestCheckpointHashRejectsCorruption(t *testing.T) {
	wire := EncodeCheckpoint(&core.Checkpoint{
		Name: "synthetic", Stage: core.StageTLS, Label: "rung",
		Machine: syntheticSnapshot(),
		VM:      &vmStateForTest,
	})
	got, err := DecodeCheckpoint(wire)
	if err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	if !bytes.Equal(wire, EncodeCheckpoint(got)) {
		t.Fatal("checkpoint decode∘encode is not the identity")
	}
	for i := 0; i < len(wire); i++ {
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0x41
		if _, err := DecodeCheckpoint(mut); err == nil {
			t.Fatalf("flip at byte %d/%d decoded cleanly", i, len(wire))
		} else if !typedCodecError(err) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
	for n := 0; n < len(wire); n++ {
		if _, err := DecodeCheckpoint(wire[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(wire))
		} else if !typedCodecError(err) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}
	if _, err := DecodeSnapshot(wire); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checkpoint bytes accepted as a snapshot: %v", err)
	}
	if _, err := DecodeCheckpoint(EncodeSnapshot(syntheticSnapshot())); !typedCodecError(err) {
		t.Fatalf("snapshot bytes accepted as a checkpoint: %v", err)
	}
	skew := append([]byte(nil), wire...)
	skew[4] = Version + 1
	if _, err := DecodeCheckpoint(skew); !typedCodecError(err) {
		t.Fatalf("version skew: got %v", err)
	}
}

// outOfRange is a snapshot or checkpoint encoding whose one narrowed field
// is rewritten past its type's range.
type outOfRange struct {
	name       string
	checkpoint bool
	clean      []byte // the encoding before the rewrite
	wire       []byte
}

// outOfRangeWires rewrites an L2 tag of 0xABCDEF as 1<<32 | 0xABCDEF
// (mem.Addr is 32 bits) and a tier-2 LastEntry of 0x2BCDEF1 as
// 0x2BCDEF1 + 1<<32 (int32), in a snapshot and in a checkpoint. Truncating
// either value would decode cleanly and re-encode to other bytes. The
// checkpoints' trailing hash is recomputed: it detects torn files, not
// non-canonical ones.
func outOfRangeWires(t testing.TB) []outOfRange {
	t.Helper()
	var out []outOfRange
	for _, f := range []struct {
		name     string
		set      func(*hydra.MachineSnapshot)
		from, to []byte
	}{
		{"l2-tag", func(s *hydra.MachineSnapshot) { s.Caches.L2.Tags[1] = 0xABCDEF },
			binary.AppendUvarint(nil, 0xABCDEF), binary.AppendUvarint(nil, 1<<32|0xABCDEF)},
		{"tier2-last-entry", func(s *hydra.MachineSnapshot) { s.T2.LastEntry = 0x2BCDEF1 },
			binary.AppendVarint(nil, 0x2BCDEF1), binary.AppendVarint(nil, 0x2BCDEF1+1<<32)},
	} {
		s := syntheticSnapshot()
		f.set(s)
		rewrite := func(wire []byte) []byte {
			if n := bytes.Count(wire, f.from); n != 1 {
				t.Fatalf("%s: field bytes %x occur %d times, want 1", f.name, f.from, n)
			}
			return bytes.Replace(wire, f.from, f.to, 1)
		}
		snap := EncodeSnapshot(s)
		out = append(out, outOfRange{name: "snapshot/" + f.name, clean: snap, wire: rewrite(snap)})

		cp := EncodeCheckpoint(&core.Checkpoint{Name: "range", Stage: core.StageTLS, Machine: s, VM: &vmStateForTest})
		payload := rewrite(cp[:len(cp)-checkpointHashSize])
		sum := sha256.Sum256(payload[envelopeHeaderSize:])
		out = append(out, outOfRange{name: "checkpoint/" + f.name, checkpoint: true, clean: cp, wire: append(payload, sum[:]...)})
	}
	return out
}

// TestNarrowedFieldsRejectOutOfRange: a varint past a narrowed field's
// range is corrupt input, not a value to truncate, so every accepted
// snapshot and checkpoint re-encodes to itself.
func TestNarrowedFieldsRejectOutOfRange(t *testing.T) {
	for _, in := range outOfRangeWires(t) {
		decode := func(b []byte) error {
			if in.checkpoint {
				_, err := DecodeCheckpoint(b)
				return err
			}
			_, err := DecodeSnapshot(b)
			return err
		}
		if err := decode(in.clean); err != nil {
			t.Fatalf("%s: in-range encoding: %v", in.name, err)
		}
		if err := decode(in.wire); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: out-of-range field decoded with %v, want ErrCorrupt", in.name, err)
		}
	}
}
