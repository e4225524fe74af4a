package vm

import (
	"fmt"
	"sort"

	"jrpm/internal/hydra"
	"jrpm/internal/isa"
	"jrpm/internal/mem"
)

// CollectGarbage runs a stop-the-world mark-sweep collection
// (hydra.Runtime). The machine guarantees the caller is either executing
// serially or is the head thread with all younger speculation quiesced, so
// flat memory is architecturally consistent.
//
// Roots are every CPU's register file, the live stack region, and the
// static field area. Reference identification is exact: a root or heap word
// is a reference iff it equals the address of an allocated block (the
// allocation registry). Marked blocks are scanned conservatively over their
// whole body — field layouts contain only word values, so any word that
// matches an allocated block keeps it alive.
//
// The sweep rebuilds the shared free list from all unmarked blocks plus the
// surviving free spans, coalescing adjacent spans; the per-CPU speculative
// lists reset to empty and refill on demand.
func (v *VM) CollectGarbage(m *hydra.Machine, cpu int) {
	v.GCs++
	marked := make(map[mem.Addr]bool, len(v.blocks))

	var work []mem.Addr
	consider := func(w int64) {
		a := mem.Addr(w)
		if w <= 0 || a < v.heapBase || a >= v.heapLimit {
			return
		}
		if _, ok := v.blocks[a]; ok && !marked[a] {
			marked[a] = true
			work = append(work, a)
		}
	}

	// Roots: registers, stacks, statics.
	scanned := int64(0)
	lowSP := int64(hydra.StackTop)
	for _, c := range m.CPUs {
		for _, r := range c.Regs {
			consider(r)
		}
		scanned += 32
		if sp := c.Regs[isa.SP]; sp > int64(v.heapLimit) && sp < lowSP {
			lowSP = sp
		}
	}
	for a := mem.Addr(lowSP); a < hydra.StackTop; a++ {
		consider(m.RawRead(a))
		scanned++
	}
	for i := 0; i < m.Image.Statics; i++ {
		consider(m.RawRead(hydra.GlobalBase + mem.Addr(i)))
		scanned++
	}

	// Mark: transitively scan block bodies.
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		size := v.blocks[a]
		for off := int64(0); off < size; off++ {
			consider(m.RawRead(a + mem.Addr(off)))
		}
		scanned += size
	}

	// Collect surviving free spans from the shared and per-CPU lists.
	var spans []span
	walk := func(headAddr mem.Addr) {
		cur := m.RawRead(headAddr)
		for cur != 0 {
			spans = append(spans, span{mem.Addr(cur), m.RawRead(mem.Addr(cur) + blkSize)})
			cur = m.RawRead(mem.Addr(cur) + blkNext)
		}
	}
	walk(v.heapBase + metaShared)
	for i := range m.CPUs {
		walk(v.heapBase + metaCPU0 + mem.Addr(i))
	}
	sortSpans(spans)

	// Make the registry agree with memory. A speculative allocation
	// registers its block at once, but the stores that carve it off its free
	// span stay buffered: when the attempt is discarded, memory still lists
	// those words as free. Such a block overlaps a free span and is
	// forgotten, marked or not (only registers of dead attempts hold its
	// address).
	blocks := make([]span, 0, len(v.blocks))
	for a, size := range v.blocks {
		blocks = append(blocks, span{a, size})
	}
	sortSpans(blocks)
	live := blocks[:0]
	for _, b := range blocks {
		// Free spans are disjoint, so only the last one starting below b's
		// end can overlap b.
		i := sort.Search(len(spans), func(i int) bool { return spans[i].addr >= b.end() })
		if i > 0 && spans[i-1].end() > b.addr {
			delete(v.blocks, b.addr)
		} else {
			live = append(live, b)
		}
	}

	// Sweep: unmarked blocks become free spans. Registered blocks overlap
	// only where a discarded attempt's block outlived the free span it came
	// from; at most one of them is real, so an unmarked block that overlaps
	// another is forgotten rather than freed, and no live object's words
	// reach the free list.
	freed := int64(0)
	var end mem.Addr // highest end of the blocks so far
	for i, b := range live {
		overlaps := b.addr < end || i+1 < len(live) && live[i+1].addr < b.end()
		end = max(end, b.end())
		if marked[b.addr] {
			continue
		}
		if !overlaps {
			spans = append(spans, b)
			freed++
		}
		delete(v.blocks, b.addr)
	}
	v.LastLive = int64(len(v.blocks))
	v.LastFreed = freed

	// Coalesce and rebuild the shared list (address order aids locality).
	// The spans are disjoint by now; an overlap means the free lists in
	// memory were corrupt, and the collector stops rather than hand the same
	// words out twice.
	sortSpans(spans)
	var merged []span
	for _, s := range spans {
		n := len(merged)
		switch {
		case n > 0 && s.addr < merged[n-1].end():
			panic(fmt.Errorf("vm: collector: free spans [%d,+%d) and [%d,+%d) overlap",
				merged[n-1].addr, merged[n-1].size, s.addr, s.size))
		case n > 0 && s.addr == merged[n-1].end():
			merged[n-1].size += s.size
		default:
			merged = append(merged, s)
		}
	}
	prev := v.heapBase + metaShared
	for _, s := range merged {
		m.RawWrite(prev, int64(s.addr))
		m.RawWrite(s.addr+blkSize, s.size)
		prev = s.addr + blkNext
	}
	m.RawWrite(prev, 0)
	for i := range m.CPUs {
		m.RawWrite(v.heapBase+metaCPU0+mem.Addr(i), 0)
	}

	// Collector cost: root/heap scan plus per-object mark/sweep work.
	m.ChargeGC(cpu, 200+scanned/4+8*int64(len(marked))+4*freed)
}

// span is a run of heap words: a free-list entry or a registered block.
type span struct {
	addr mem.Addr
	size int64
}

func (s span) end() mem.Addr { return s.addr + mem.Addr(s.size) }

// sortSpans orders spans by address, then size: a total order, so equal
// inputs rebuild the same free list whatever order the registry map gave.
func sortSpans(s []span) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].addr != s[j].addr {
			return s[i].addr < s[j].addr
		}
		return s[i].size < s[j].size
	})
}
