package vm

import (
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/hydra"
	"jrpm/internal/isa"
	"jrpm/internal/mem"
)

func testProgram() *bytecode.Program {
	return &bytecode.Program{
		Name: "t",
		Classes: []*bytecode.Class{
			{ID: 0, Name: "Pair", NumFields: 2},
			{ID: 1, Name: "Big", NumFields: 10},
		},
		Methods: []*bytecode.Method{{Name: "main", Code: []bytecode.Ins{{Op: bytecode.RETURN}}}},
	}
}

// haltImage is a minimal image so NewMachine has something to hold.
func haltImage() *hydra.Image {
	return &hydra.Image{
		Name:    "t",
		Methods: []*hydra.Method{{Name: "main", Code: isa.Code{{Op: isa.HALT}}, FrameWords: 4}},
		STLs:    map[int64]*hydra.STLDesc{},
	}
}

func newVMAndMachine(cfg Config) (*VM, *hydra.Machine) {
	v := New(testProgram(), cfg)
	m := hydra.NewMachine(haltImage(), v, hydra.DefaultOptions())
	m.Boot()
	v.Install(m)
	return v, m
}

func TestAllocWritesHeader(t *testing.T) {
	v, m := newVMAndMachine(DefaultConfig())
	ref, gc := v.Alloc(m, 0, 0)
	if gc {
		t.Fatal("fresh heap should not need GC")
	}
	if m.RawRead(mem.Addr(ref)) != 0 {
		t.Errorf("class word = %d", m.RawRead(mem.Addr(ref)))
	}
	if m.RawRead(mem.Addr(ref)+1) != 0 {
		t.Error("lock word should be clear")
	}
	if v.Allocs != 1 {
		t.Errorf("alloc count = %d", v.Allocs)
	}
}

func TestAllocArrayLengthStored(t *testing.T) {
	v, m := newVMAndMachine(DefaultConfig())
	ref, gc := v.AllocArray(m, 0, 17)
	if gc {
		t.Fatal("unexpected GC request")
	}
	if m.RawRead(mem.Addr(ref)) != ArrayClassID {
		t.Error("array tag missing")
	}
	if m.RawRead(mem.Addr(ref)+2) != 17 {
		t.Errorf("length = %d", m.RawRead(mem.Addr(ref)+2))
	}
}

func TestDistinctAllocations(t *testing.T) {
	v, m := newVMAndMachine(DefaultConfig())
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		ref, gc := v.Alloc(m, 0, 1)
		if gc {
			t.Fatal("heap exhausted unexpectedly")
		}
		if seen[ref] {
			t.Fatalf("address %d allocated twice", ref)
		}
		seen[ref] = true
	}
}

func TestHeapExhaustionRequestsGC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapWords = metaWords + 64 // tiny heap
	v, m := newVMAndMachine(cfg)
	sawGC := false
	for i := 0; i < 100; i++ {
		_, gc := v.Alloc(m, 0, 1) // Big-ish objects, 12 words each
		if gc {
			sawGC = true
			break
		}
	}
	if !sawGC {
		t.Fatal("tiny heap never requested GC")
	}
}

func TestGCRecoversGarbage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapWords = metaWords + 120
	v, m := newVMAndMachine(cfg)
	// Allocate until full; keep no references (registers are zero).
	for {
		if _, gc := v.Alloc(m, 0, 1); gc {
			break
		}
	}
	v.CollectGarbage(m, 0)
	if v.LastFreed == 0 {
		t.Fatal("collector freed nothing")
	}
	if v.LastLive != 0 {
		t.Errorf("live = %d, want 0 (no roots)", v.LastLive)
	}
	// Heap is usable again.
	if _, gc := v.Alloc(m, 0, 1); gc {
		t.Fatal("allocation still failing after GC")
	}
	if m.GCCycles == 0 {
		t.Error("GC cost not charged")
	}
}

func TestGCKeepsRootedObjects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapWords = metaWords + 200
	v, m := newVMAndMachine(cfg)
	keep, _ := v.Alloc(m, 0, 0)
	m.CPUs[0].Regs[isa.S0] = keep // register root
	// Store a second object's ref into the first object's field.
	child, _ := v.Alloc(m, 0, 0)
	m.RawWrite(mem.Addr(keep)+2, child)
	// And one unreachable object.
	v.Alloc(m, 0, 0)
	v.CollectGarbage(m, 0)
	if v.LastLive != 2 {
		t.Fatalf("live = %d, want 2 (root + field-reachable)", v.LastLive)
	}
	if v.LastFreed != 1 {
		t.Errorf("freed = %d, want 1", v.LastFreed)
	}
	// The survivors' contents are intact.
	if m.RawRead(mem.Addr(keep)+2) != child {
		t.Error("survivor field corrupted")
	}
}

func TestGCCoalescesFreeSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapWords = metaWords + 100
	v, m := newVMAndMachine(cfg)
	// Fragment the heap with small dead objects, then collect and allocate
	// something bigger than any single fragment.
	for {
		if _, gc := v.Alloc(m, 0, 0); gc { // 4-word objects
			break
		}
	}
	v.CollectGarbage(m, 0)
	if _, gc := v.Alloc(m, 0, 1); gc { // 12 words: needs coalesced space
		t.Fatal("coalescing failed: cannot allocate large object after GC")
	}
}

func TestStackRootsScanned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapWords = metaWords + 100
	v, m := newVMAndMachine(cfg)
	ref, _ := v.Alloc(m, 0, 0)
	// Put the only reference into a live stack slot.
	sp := m.CPUs[0].Regs[isa.SP]
	m.RawWrite(mem.Addr(sp), ref)
	v.CollectGarbage(m, 0)
	if v.LastLive != 1 {
		t.Fatalf("stack-rooted object collected (live=%d)", v.LastLive)
	}
}

func TestMonitorLockWordTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ElideLocks = false
	v, m := newVMAndMachine(cfg)
	ref, _ := v.Alloc(m, 0, 0)
	v.MonitorEnter(m, 0, ref)
	if m.RawRead(mem.Addr(ref)+1) != 1 {
		t.Error("lock word not set")
	}
	v.MonitorExit(m, 0, ref)
	if m.RawRead(mem.Addr(ref)+1) != 0 {
		t.Error("lock word not cleared")
	}
}

func TestParallelAllocUsesPrivateLists(t *testing.T) {
	// With ParallelAlloc, speculative allocations by different CPUs must
	// not conflict on the shared free-list head. We approximate the check
	// structurally: allocations during an active STL come from chunked
	// private lists, so consecutive allocs by two CPUs return addresses
	// from disjoint chunks.
	v, m := newVMAndMachine(DefaultConfig())
	m.TLS.Start(1) // activate speculation directly for the allocator's benefit
	a0, gc0 := v.Alloc(m, 0, 0)
	a1, gc1 := v.Alloc(m, 1, 0)
	if gc0 || gc1 {
		t.Fatal("unexpected GC request")
	}
	if a0 == a1 {
		t.Fatal("both CPUs allocated the same block")
	}
	d := a0 - a1
	if d < 0 {
		d = -d
	}
	if d < 128 {
		t.Errorf("allocations suspiciously close (%d apart) for chunked private lists", d)
	}
}

func TestChunkRefillFallsBackToExactFit(t *testing.T) {
	// Shared list smaller than a chunk: the refill must fall back to
	// carving exactly what the allocation needs.
	cfg := DefaultConfig()
	cfg.HeapWords = metaWords + 40 // far below ChunkWords
	v, m := newVMAndMachine(cfg)
	m.TLS.Start(1)
	ref, gc := v.Alloc(m, 0, 0) // 4-word object
	if gc || ref == 0 {
		t.Fatalf("small-heap speculative alloc failed (gc=%v)", gc)
	}
}

func TestGCResetsPrivateLists(t *testing.T) {
	v, m := newVMAndMachine(DefaultConfig())
	m.TLS.Start(1)
	if _, gc := v.Alloc(m, 0, 0); gc {
		t.Fatal("alloc failed")
	}
	// End speculation so the collector may run; private chunk survives as
	// free space afterwards.
	m.TLS.Shutdown(0)
	v.CollectGarbage(m, 0)
	for i := range m.CPUs {
		if m.RawRead(v.heapBase+metaCPU0+mem.Addr(i)) != 0 {
			t.Fatalf("cpu %d private list not reset after GC", i)
		}
	}
	// And the space is reusable.
	if _, gc := v.Alloc(m, 0, 1); gc {
		t.Fatal("heap unusable after GC")
	}
}

// TestGCForgetsDiscardedAllocations: a speculative allocation registers its
// block at once, but a discarded attempt loses the stores that carved it, so
// memory still lists its words as free. The collector must forget such a
// block whether or not a dead register still holds it, and must not free
// one that lies inside a live block carved later from the same words.
func TestGCForgetsDiscardedAllocations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeapWords = metaWords + 200
	v, m := newVMAndMachine(cfg)
	first := v.heapBase + metaWords // the one free span
	total := m.RawRead(first + blkSize)
	discarded := func(classID int64) int64 {
		size := m.RawRead(first + blkSize)
		ref, _ := v.Alloc(m, 0, classID)
		m.RawWrite(first+blkSize, size) // the carving store never commits
		return ref
	}

	inside := discarded(0) // the span's last 4 words
	live, _ := v.Alloc(m, 0, 1)
	m.CPUs[0].Regs[isa.S0] = live // the span's last 12 words, rooted
	if mem.Addr(inside) < mem.Addr(live) || inside+4 > live+12 {
		t.Fatalf("block %d does not lie inside live block %d", inside, live)
	}
	rooted := discarded(0)
	m.CPUs[1].Regs[isa.S0] = rooted // a dead attempt's register
	v.CollectGarbage(m, 0)

	if len(v.blocks) != 1 || v.blocks[mem.Addr(live)] != 12 {
		t.Fatalf("registry %v after collection, want only the live block %d", v.blocks, live)
	}
	if v.LastFreed != 0 {
		t.Errorf("freed %d blocks, want 0", v.LastFreed)
	}
	head := mem.Addr(m.RawRead(v.heapBase + metaShared))
	if head != first || m.RawRead(first+blkSize) != total-12 || m.RawRead(first+blkNext) != 0 {
		t.Fatalf("free list starts at %d with size %d, next %d; want one span %d of %d words",
			head, m.RawRead(head+blkSize), m.RawRead(head+blkNext), first, total-12)
	}
	if m.RawRead(mem.Addr(live)) != 1 {
		t.Error("live block's class word corrupted")
	}
}
