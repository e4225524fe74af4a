// Package vm implements the Java-like virtual machine runtime services for
// Jrpm: object and array allocation from free lists held in simulated
// memory, a stop-the-world mark-sweep garbage collector, and object
// monitors.
//
// Everything the paper's §5 discusses as a VM-level speculation concern is
// modelled structurally:
//
//   - The allocator free-list head is a real simulated-memory word, so
//     allocating on every speculative thread creates the serializing
//     dependency of §5.2. With Config.ParallelAlloc the VM switches to
//     per-CPU free lists during speculation (refilled in chunks, like
//     thread-local allocation buffers), removing the dependency.
//   - Object lock words live in the object header, so synchronized methods
//     create per-iteration lock-word traffic. With Config.ElideLocks the
//     re-implemented lock routine of §5.3 skips the traffic while
//     speculation is active (sequential ordering is guaranteed by TLS).
//
// The collector is stop-the-world (it only runs on the head thread or in
// serial execution); the paper's concurrent collector differs only in
// scheduling, which none of the reproduced results depend on.
package vm

import (
	"jrpm/internal/bytecode"
	"jrpm/internal/hydra"
	"jrpm/internal/mem"
)

// Config selects the VM modifications of §5.
type Config struct {
	ParallelAlloc bool // per-CPU speculative free lists (§5.2)
	ElideLocks    bool // speculation-aware object locks (§5.3)
	HeapWords     int  // heap size; 0 selects the default
	ChunkWords    int  // per-CPU free-list refill granularity
}

// DefaultConfig returns the VM configuration with both modifications on,
// matching the paper's final system.
func DefaultConfig() Config {
	return Config{ParallelAlloc: true, ElideLocks: true}
}

// Heap metadata layout, at the start of the heap region. The shared
// free-list head is one word; per-CPU heads follow.
const (
	metaShared = 0 // shared free-list head
	metaCPU0   = 1 // per-CPU free-list heads (one word per CPU)
	metaWords  = 16
)

// Free-list block layout: word 0 = size (total words), word 1 = next.
const (
	blkSize  = 0
	blkNext  = 1
	minBlock = 2
)

// ArrayClassID tags array headers in the class word.
const ArrayClassID = -1

// VM implements hydra.Runtime.
type VM struct {
	cfg     Config
	classes []*bytecode.Class

	heapBase  mem.Addr
	heapLimit mem.Addr

	// alloc registry: block address → total block words (including any
	// slack the allocator could not split off). The collector uses it for
	// exact reference identification and sweep. A block allocated by a
	// speculative thread that is later violated simply becomes unreachable
	// garbage, exactly as in the real system.
	blocks map[mem.Addr]int64

	// Statistics.
	Allocs     int64
	AllocWords int64
	GCs        int64
	LastLive   int64
	LastFreed  int64
}

// New builds a VM for the program's class table.
func New(p *bytecode.Program, cfg Config) *VM {
	if cfg.HeapWords == 0 {
		cfg.HeapWords = 1<<21 - int(hydra.HeapBase)
	}
	if cfg.ChunkWords == 0 {
		cfg.ChunkWords = 512
	}
	return &VM{
		cfg:       cfg,
		classes:   p.Classes,
		heapBase:  hydra.HeapBase,
		heapLimit: hydra.HeapBase + mem.Addr(cfg.HeapWords),
		blocks:    make(map[mem.Addr]int64),
	}
}

// Install writes the initial free list into the machine's memory. Call once
// before Machine.Run.
func (v *VM) Install(m *hydra.Machine) {
	first := v.heapBase + metaWords
	size := int64(v.heapLimit - first)
	m.RawWrite(v.heapBase+metaShared, int64(first))
	m.RawWrite(first+blkSize, size)
	m.RawWrite(first+blkNext, 0)
	for i := 0; i < len(m.CPUs); i++ {
		m.RawWrite(v.heapBase+metaCPU0+mem.Addr(i), 0)
	}
}

// HeapRange returns the heap bounds (used by the collector's root scan).
func (v *VM) HeapRange() (mem.Addr, mem.Addr) { return v.heapBase, v.heapLimit }

// Alloc allocates an instance of classID (hydra.Runtime).
func (v *VM) Alloc(m *hydra.Machine, cpu int, classID int64) (int64, bool) {
	words := int64(bytecode.ObjectHeaderWords + v.classes[classID].NumFields)
	ref, got, ok := v.allocate(m, cpu, words)
	if !ok {
		return 0, true
	}
	v.blocks[mem.Addr(ref)] = got
	m.RuntimeStore(cpu, mem.Addr(ref), classID, hydra.ClassAlloc)
	m.RuntimeStore(cpu, mem.Addr(ref)+1, 0, hydra.ClassAlloc) // lock word
	// Zero the fields and any carve slack: freed memory may hold stale
	// data, and the collector scans the whole registered block. The bulk
	// zeroing cost is folded into the ALLOC instruction latency rather
	// than charged per word.
	for i := int64(bytecode.ObjectHeaderWords); i < got; i++ {
		m.RawWrite(mem.Addr(ref)+mem.Addr(i), 0)
	}
	v.Allocs++
	v.AllocWords += words
	return ref, false
}

// AllocArray allocates an array of length words (hydra.Runtime).
func (v *VM) AllocArray(m *hydra.Machine, cpu int, length int64) (int64, bool) {
	words := int64(bytecode.ArrayHeaderWords) + length
	ref, got, ok := v.allocate(m, cpu, words)
	if !ok {
		return 0, true
	}
	v.blocks[mem.Addr(ref)] = got
	m.RuntimeStore(cpu, mem.Addr(ref), ArrayClassID, hydra.ClassAlloc)
	m.RuntimeStore(cpu, mem.Addr(ref)+1, 0, hydra.ClassAlloc)
	m.RuntimeStore(cpu, mem.Addr(ref)+2, length, hydra.ClassAlloc)
	// Elements plus carve slack, as in Alloc.
	for i := int64(bytecode.ArrayHeaderWords); i < got; i++ {
		m.RawWrite(mem.Addr(ref)+mem.Addr(i), 0)
	}
	v.Allocs++
	v.AllocWords += words
	return ref, false
}

// allocate carves words from a free list and returns the block address and
// the total words taken (possibly more than requested, when splitting would
// leave an unusably small remainder). During speculation with ParallelAlloc
// enabled, each CPU allocates from its private list, refilling it in chunks
// from the shared list when empty — the thread-local allocation buffers of
// §5.2.
func (v *VM) allocate(m *hydra.Machine, cpu int, words int64) (int64, int64, bool) {
	if words < minBlock {
		words = minBlock
	}
	if v.cfg.ParallelAlloc && m.SpecActive() {
		head := v.heapBase + metaCPU0 + mem.Addr(cpu)
		if ref, got, ok := v.carve(m, cpu, head, words); ok {
			return ref, got, true
		}
		// Refill: move a chunk from the shared list onto the private list.
		if !v.refill(m, cpu, head, words) {
			return 0, 0, false
		}
		return v.carve(m, cpu, head, words)
	}
	return v.carve(m, cpu, v.heapBase+metaShared, words)
}

// carve first-fit allocates from the list at headAddr.
func (v *VM) carve(m *hydra.Machine, cpu int, headAddr mem.Addr, words int64) (int64, int64, bool) {
	prev := mem.Addr(0)
	cur := m.RuntimeLoad(cpu, headAddr, hydra.ClassAlloc)
	for cur != 0 {
		size := m.RuntimeLoad(cpu, mem.Addr(cur)+blkSize, hydra.ClassAlloc)
		if size >= words {
			rem := size - words
			if rem >= minBlock {
				// Allocate the block's tail; keep the head on the list.
				m.RuntimeStore(cpu, mem.Addr(cur)+blkSize, rem, hydra.ClassAlloc)
				return cur + rem, words, true
			}
			// Take the whole block (including slack): unlink.
			next := m.RuntimeLoad(cpu, mem.Addr(cur)+blkNext, hydra.ClassAlloc)
			if prev == 0 {
				m.RuntimeStore(cpu, headAddr, next, hydra.ClassAlloc)
			} else {
				m.RuntimeStore(cpu, prev+blkNext, next, hydra.ClassAlloc)
			}
			return cur, size, true
		}
		prev = mem.Addr(cur)
		cur = m.RuntimeLoad(cpu, mem.Addr(cur)+blkNext, hydra.ClassAlloc)
	}
	return 0, 0, false
}

// refill moves one adequately sized block from the shared list to the
// private list at privHead.
func (v *VM) refill(m *hydra.Machine, cpu int, privHead mem.Addr, need int64) bool {
	want := need
	if c := int64(v.cfg.ChunkWords); c > want {
		want = c
	}
	blk, ok := v.carveBlock(m, cpu, v.heapBase+metaShared, want)
	if !ok {
		// Fall back to exactly what we need.
		blk, ok = v.carveBlock(m, cpu, v.heapBase+metaShared, need)
		if !ok {
			return false
		}
	}
	old := m.RuntimeLoad(cpu, privHead, hydra.ClassAlloc)
	m.RuntimeStore(cpu, mem.Addr(blk)+blkNext, old, hydra.ClassAlloc)
	m.RuntimeStore(cpu, privHead, blk, hydra.ClassAlloc)
	return true
}

// carveBlock removes a whole block of at least want words from a list and
// returns its address (the block keeps its size header).
func (v *VM) carveBlock(m *hydra.Machine, cpu int, headAddr mem.Addr, want int64) (int64, bool) {
	prev := mem.Addr(0)
	cur := m.RuntimeLoad(cpu, headAddr, hydra.ClassAlloc)
	for cur != 0 {
		size := m.RuntimeLoad(cpu, mem.Addr(cur)+blkSize, hydra.ClassAlloc)
		if size >= want {
			if size >= want+minBlock {
				// Split: leave the head, take the tail as the chunk.
				rem := size - want
				m.RuntimeStore(cpu, mem.Addr(cur)+blkSize, rem, hydra.ClassAlloc)
				chunk := cur + rem
				m.RuntimeStore(cpu, mem.Addr(chunk)+blkSize, want, hydra.ClassAlloc)
				m.RuntimeStore(cpu, mem.Addr(chunk)+blkNext, 0, hydra.ClassAlloc)
				return chunk, true
			}
			next := m.RuntimeLoad(cpu, mem.Addr(cur)+blkNext, hydra.ClassAlloc)
			if prev == 0 {
				m.RuntimeStore(cpu, headAddr, next, hydra.ClassAlloc)
			} else {
				m.RuntimeStore(cpu, prev+blkNext, next, hydra.ClassAlloc)
			}
			m.RuntimeStore(cpu, mem.Addr(cur)+blkNext, 0, hydra.ClassAlloc)
			return cur, true
		}
		prev = mem.Addr(cur)
		cur = m.RuntimeLoad(cpu, mem.Addr(cur)+blkNext, hydra.ClassAlloc)
	}
	return 0, false
}

// MonitorEnter implements the synchronized lock (hydra.Runtime). The
// speculation-aware version elides lock-word traffic during speculation:
// TLS already guarantees the sequential ordering the lock would enforce.
func (v *VM) MonitorEnter(m *hydra.Machine, cpu int, ref int64) {
	if v.cfg.ElideLocks && m.SpecActive() {
		return
	}
	// Uncontended acquire: read, then set. (There is only one logical Java
	// thread; contention cannot occur.)
	m.RuntimeLoad(cpu, mem.Addr(ref)+1, hydra.ClassLock)
	m.RuntimeStore(cpu, mem.Addr(ref)+1, 1, hydra.ClassLock)
}

// MonitorExit releases an object monitor (hydra.Runtime).
func (v *VM) MonitorExit(m *hydra.Machine, cpu int, ref int64) {
	if v.cfg.ElideLocks && m.SpecActive() {
		return
	}
	m.RuntimeStore(cpu, mem.Addr(ref)+1, 0, hydra.ClassLock)
}

var _ hydra.Runtime = (*VM)(nil)
