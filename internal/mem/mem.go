// Package mem provides the simulated flat memory of the Hydra CMP and the
// cache hierarchy latency model.
//
// Memory is word addressed; one word is 8 bytes and one cache line is
// LineWords = 4 words = 32 bytes, matching the paper's 32-byte lines. All
// architectural data — the VM heap, runtime stacks, static fields, free
// lists and object lock words — lives in this address space, so every
// dependency the paper discusses is visible to the TLS hardware and to the
// TEST profiler as real memory traffic.
//
// The cache model tracks tags only (data always lives in the flat array; L1s
// are write-through) and exists to charge the latencies of the paper's
// Figure 2: L1 hit 1 cycle, L2 hit 5 cycles, inter-processor transfer 10
// cycles, main memory 50 cycles.
package mem

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
)

// Addr is a word address.
type Addr uint32

// ErrOutOfRange is the sentinel all out-of-range access faults unwrap to.
var ErrOutOfRange = errors.New("mem: address out of range")

// Fault is the typed error raised by an out-of-range memory access. The
// machine layer wraps it with cpu/cycle context before surfacing it through
// Machine.Run.
type Fault struct {
	Addr  Addr
	Size  int
	Write bool
}

// Error renders the fault.
func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("mem: %s at %d beyond memory of %d words", op, f.Addr, f.Size)
}

// Unwrap makes errors.Is(f, ErrOutOfRange) true.
func (f *Fault) Unwrap() error { return ErrOutOfRange }

// Geometry and latency constants (paper Figure 2).
const (
	WordBytes = 8
	LineWords = 4 // 32-byte lines

	LatL1        = 1  // L1 hit
	LatL2        = 5  // L2 hit
	LatInterproc = 10 // read from another CPU's speculative store buffer
	LatMem       = 50 // main memory
)

// Line returns the cache line index containing a.
func Line(a Addr) Addr { return a / LineWords }

// Memory is the flat simulated memory. Like the hardware's DRAM it is
// fixed storage that outlives one program: a dirty flag per 4 KiB page
// records which words a run wrote, so Reset returns the memory to the all-zero
// state of a new one in time proportional to what the run touched. The
// watermarks on either side of a split point (the low region holds globals
// and heap, the high region the runtime stack filling top-down) bound the
// spans a snapshot captures.
type Memory struct {
	// words is Fixed RAM: a method whose last use of m is an access to
	// words ends with runtime.KeepAlive(m).
	words []int64
	dirty []byte // one flag per page of pageWords words, set by every write
	split Addr   // boundary between the low and high dirty regions
	loMax Addr   // exclusive top of the dirty low region
	hiMin Addr   // inclusive bottom of the dirty high region
}

// pageShift sizes the dirty-tracking pages: 512 words, 4 KiB.
const (
	pageShift = 9
	pageWords = 1 << pageShift
)

// NewMemory returns a zeroed memory of size words.
func NewMemory(size int) *Memory { return NewSplitMemory(size, Addr(size)) }

// NewSplitMemory returns a zeroed memory of size words whose snapshot spans
// divide at split (typically the base of the stack region).
func NewSplitMemory(size int, split Addr) *Memory {
	m := &Memory{
		dirty: make([]byte, (size+pageWords-1)>>pageShift),
		split: split,
		hiMin: Addr(size),
	}
	m.words = Fixed[int64](m, size)
	return m
}

// Reset zeroes every page written since the memory was built or last reset
// and rewinds the watermarks. Afterwards the memory is indistinguishable
// from a new one of the same geometry.
func (m *Memory) Reset() {
	for p := 0; p < len(m.dirty); {
		i := bytes.IndexByte(m.dirty[p:], 1)
		if i < 0 {
			break
		}
		p += i
		// Clear the run of consecutive dirty pages with one memclr.
		q := p
		for q < len(m.dirty) && m.dirty[q] != 0 {
			m.dirty[q] = 0
			q++
		}
		clear(m.words[p<<pageShift : min(q<<pageShift, len(m.words))])
		p = q
	}
	m.loMax, m.hiMin = 0, Addr(len(m.words))
}

// markDirty flags the pages of [lo, hi) as written.
func (m *Memory) markDirty(lo, hi Addr) {
	if lo < hi {
		for p := lo >> pageShift; p <= (hi-1)>>pageShift; p++ {
			m.dirty[p] = 1
		}
	}
}

// Size returns the memory size in words.
func (m *Memory) Size() int { return len(m.words) }

// InRange reports whether a is a valid word address. Callers on paths that
// must stay panic-free (the simulator core) check before accessing.
func (m *Memory) InRange(a Addr) bool { return int(a) < len(m.words) }

// Read returns the word at a. An out-of-range address panics with a typed
// *Fault. The machine layer bounds-checks the interpreter's own accesses
// first, recovers the VM runtime's faults around each runtime call, and
// treats any other fault as a simulator bug surfaced through its recover
// backstop.
func (m *Memory) Read(a Addr) int64 {
	if int(a) >= len(m.words) {
		panic(&Fault{Addr: a, Size: len(m.words)})
	}
	v := m.words[a]
	runtime.KeepAlive(m)
	return v
}

// Write stores v at a. Out-of-range panics with a typed *Fault, as Read.
func (m *Memory) Write(a Addr, v int64) {
	if int(a) >= len(m.words) {
		panic(&Fault{Addr: a, Size: len(m.words), Write: true})
	}
	m.words[a] = v
	m.dirty[a>>pageShift] = 1
	if a < m.split {
		if a >= m.loMax {
			m.loMax = a + 1
		}
	} else if a < m.hiMin {
		m.hiMin = a
	}
}

// CacheConfig describes the cache hierarchy geometry.
type CacheConfig struct {
	NCPU     int
	L1Lines  int // lines per CPU L1 (paper: 512 = 16 kB)
	L1Assoc  int // paper: 4-way
	L2Lines  int // shared L2 lines (paper: 65536 = 2 MB)
	L2Assoc  int
	LatL1    int64
	LatL2    int64
	LatMem   int64
	LatInter int64
}

// DefaultCacheConfig returns the paper's Hydra configuration for ncpu CPUs.
func DefaultCacheConfig(ncpu int) CacheConfig {
	return CacheConfig{
		NCPU:     ncpu,
		L1Lines:  512,
		L1Assoc:  4,
		L2Lines:  65536,
		L2Assoc:  8,
		LatL1:    LatL1,
		LatL2:    LatL2,
		LatMem:   LatMem,
		LatInter: LatInterproc,
	}
}

// setAssoc is a set-associative tag array with LRU replacement.
type setAssoc struct {
	sets  int
	mask  int // sets-1 when sets is a power of two, else -1 (modulo fallback)
	assoc int
	tags  []Addr   // sets*assoc entries; 0 means empty (line 0 is never cached: it is the null page)
	lru   []uint32 // per-entry last-use stamp
	clock uint32
	dirty []byte // per set: written since the last reset
}

func newSetAssoc(lines, assoc int) *setAssoc {
	sets := lines / assoc
	if sets == 0 {
		sets = 1
	}
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	return &setAssoc{
		sets:  sets,
		mask:  mask,
		assoc: assoc,
		tags:  make([]Addr, sets*assoc),
		lru:   make([]uint32, sets*assoc),
		dirty: make([]byte, sets),
	}
}

// reset empties every set an access touched since the last reset, as the
// hardware's flash clear of the tag RAM would.
func (s *setAssoc) reset() {
	for set := 0; set < s.sets; {
		i := bytes.IndexByte(s.dirty[set:], 1)
		if i < 0 {
			break
		}
		set += i
		s.dirty[set] = 0
		clear(s.tags[set*s.assoc : (set+1)*s.assoc])
		clear(s.lru[set*s.assoc : (set+1)*s.assoc])
		set++
	}
	s.clock = 0
}

// setOf maps a line to its set: a mask when the geometry allows (the paper's
// caches are power-of-two), an integer modulo otherwise.
func (s *setAssoc) setOf(line Addr) int {
	if s.mask >= 0 {
		return int(line) & s.mask
	}
	return int(line) % s.sets
}

// access looks line up, touching LRU state. If fill is true a miss allocates
// the line (evicting LRU). It reports whether the access hit.
func (s *setAssoc) access(line Addr, fill bool) bool {
	s.clock++
	set := s.setOf(line)
	s.dirty[set] = 1
	base := set * s.assoc
	victim := base
	for i := 0; i < s.assoc; i++ {
		e := base + i
		if s.tags[e] == line {
			s.lru[e] = s.clock
			return true
		}
		if s.lru[e] < s.lru[victim] {
			victim = e
		}
	}
	if fill {
		s.tags[victim] = line
		s.lru[victim] = s.clock
	}
	return false
}

// contains reports whether line is present without touching LRU state.
func (s *setAssoc) contains(line Addr) bool {
	set := s.setOf(line)
	base := set * s.assoc
	for i := 0; i < s.assoc; i++ {
		if s.tags[base+i] == line {
			return true
		}
	}
	return false
}

// invalidate removes line if present.
func (s *setAssoc) invalidate(line Addr) {
	set := s.setOf(line)
	base := set * s.assoc
	for i := 0; i < s.assoc; i++ {
		if s.tags[base+i] == line {
			s.tags[base+i] = 0
			s.lru[base+i] = 0
		}
	}
}

// CacheSim models per-CPU L1 data caches over a shared L2 and charges access
// latencies. It tracks tags only; correctness data lives in Memory.
type CacheSim struct {
	cfg CacheConfig
	l1  []*setAssoc
	l2  *setAssoc

	// Statistics.
	L1Hits, L1Misses, L2Hits, L2Misses int64
}

// NewCacheSim builds the cache hierarchy for cfg.
func NewCacheSim(cfg CacheConfig) *CacheSim {
	cs := &CacheSim{cfg: cfg, l2: newSetAssoc(cfg.L2Lines, cfg.L2Assoc)}
	for i := 0; i < cfg.NCPU; i++ {
		cs.l1 = append(cs.l1, newSetAssoc(cfg.L1Lines, cfg.L1Assoc))
	}
	return cs
}

// Config returns the geometry the simulator was built with.
func (cs *CacheSim) Config() CacheConfig { return cs.cfg }

// Reset empties every cache and zeroes the counters, leaving the simulator
// indistinguishable from a new one built for the same configuration. It
// costs time proportional to the sets the last run touched.
func (cs *CacheSim) Reset() {
	for _, l1 := range cs.l1 {
		l1.reset()
	}
	cs.l2.reset()
	cs.L1Hits, cs.L1Misses, cs.L2Hits, cs.L2Misses = 0, 0, 0, 0
}

// Load charges the latency of a load by cpu from address a and updates tag
// state (L1 and L2 fills on miss).
func (cs *CacheSim) Load(cpu int, a Addr) int64 {
	line := Line(a)
	if cs.l1[cpu].access(line, true) {
		cs.L1Hits++
		return cs.cfg.LatL1
	}
	cs.L1Misses++
	if cs.l2.access(line, true) {
		cs.L2Hits++
		return cs.cfg.LatL2
	}
	cs.L2Misses++
	return cs.cfg.LatMem
}

// Store charges the latency of a store by cpu to address a. The L1s are
// write-through with a write buffer, so a store retires in one cycle; the
// write allocates in the L2 and updates (does not invalidate) other L1s that
// hold the line, as Hydra's write-through bus does. Here "updates" is a
// no-op because data lives in flat memory; we only keep tag state coherent.
func (cs *CacheSim) Store(cpu int, a Addr) int64 {
	line := Line(a)
	cs.l1[cpu].access(line, true)
	cs.l2.access(line, true)
	return cs.cfg.LatL1
}

// InterprocLatency returns the cost of reading a value out of another CPU's
// speculative store buffer across the read bus.
func (cs *CacheSim) InterprocLatency() int64 { return cs.cfg.LatInter }

// InvalidateL1 removes a line from one CPU's L1 (used when speculative state
// is discarded on a violation: the speculatively-read lines are flash
// cleared).
func (cs *CacheSim) InvalidateL1(cpu int, a Addr) {
	cs.l1[cpu].invalidate(Line(a))
}
