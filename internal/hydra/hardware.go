package hydra

import (
	"runtime"
	"sync"

	"jrpm/internal/mem"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
)

// Machine hardware recycling.
//
// In the paper's Hydra the speculative store buffers and read tags, TEST's
// timestamp tables and the L1/L2 tag arrays are fixed RAM that the hardware
// clears between uses (§3, Figure 2). The simulator does the same: a
// released machine's hardware goes on one bounded free list, keyed by
// geometry, and the next machine of that geometry takes it and has each
// part reset itself to exactly the state a new one has, in time
// proportional to what the last run touched (dirty pages and sets,
// generation bumps). An empty list or a geometry mismatch allocates new
// hardware.

// geometry is the shape of the geometry-dependent parts: the cache tag
// arrays and the per-CPU speculation buffers. Memory, tracer slabs and the
// tier-2 cache have one shape for every machine.
type geometry struct {
	cache                       mem.CacheConfig
	ncpu, storeLines, loadLines int
}

// hardware is one machine's fixed RAM. slabs is nil until a profiling
// machine needs TEST storage; the other parts always exist. The tls unit
// is built over this entry's memory and caches.
type hardware struct {
	geom   geometry
	mem    *mem.Memory
	caches *mem.CacheSim
	tls    *tls.Unit
	slabs  *tracer.Slabs
	t2     *tier2
}

// freeHardware is the free list, oldest entry first. Its bound covers two
// machines per host thread (core.Run overlaps a sequential and a profiling
// machine); a release into a full list drops the oldest entry.
var freeHardware struct {
	mu   sync.Mutex
	list []*hardware
}

var freeHardwareCap = max(4, 2*runtime.GOMAXPROCS(0))

// acquireHardware returns hardware for a machine of the given configuration,
// reset to its new state (tracer slabs excepted: tracer.NewOn resets those).
// It prefers the most recently released entry of the same geometry whose
// slabs match profile. A profiling machine that finds no slabs on its entry
// takes an idle set from any entry, whatever its geometry; a plain machine
// that must take an entry with slabs parks them on an entry without.
func acquireHardware(cacheCfg mem.CacheConfig, tlsCfg tls.Config, profile bool) *hardware {
	g := geometry{cacheCfg, tlsCfg.NCPU, tlsCfg.StoreBufferLines, tlsCfg.LoadBufferLines}
	fl := &freeHardware
	fl.mu.Lock()
	pick, pickScore := -1, 0
	for i := len(fl.list) - 1; i >= 0 && pickScore < 2; i-- {
		e := fl.list[i]
		if e.geom != g {
			continue
		}
		score := 1
		if (e.slabs != nil) == profile {
			score = 2
		}
		if score > pickScore {
			pick, pickScore = i, score
		}
	}
	var h *hardware
	if pick >= 0 {
		h = fl.list[pick]
		fl.list = append(fl.list[:pick], fl.list[pick+1:]...)
	}
	var slabs *tracer.Slabs
	if h != nil {
		slabs, h.slabs = h.slabs, nil
	}
	for i := len(fl.list) - 1; i >= 0; i-- {
		e := fl.list[i]
		if profile && slabs == nil && e.slabs != nil {
			slabs, e.slabs = e.slabs, nil
			break
		}
		if !profile && slabs != nil && e.slabs == nil {
			e.slabs, slabs = slabs, nil
			break
		}
	}
	fl.mu.Unlock()

	if h == nil {
		m := mem.NewSplitMemory(MemWords, StackRegionBase)
		c := mem.NewCacheSim(cacheCfg)
		h = &hardware{geom: g, mem: m, caches: c, tls: tls.NewUnit(tlsCfg, m, c), t2: newTier2()}
	} else {
		h.mem.Reset()
		h.caches.Reset()
		h.tls.Reset(tlsCfg)
		h.t2.reset()
	}
	h.slabs = slabs
	return h
}

// releaseHardware puts h on the free list. When the list is full the oldest
// entry goes, though its idle slabs move to h if h has none.
func releaseHardware(h *hardware) {
	fl := &freeHardware
	fl.mu.Lock()
	if len(fl.list) >= freeHardwareCap {
		old := fl.list[0]
		if h.slabs == nil {
			h.slabs = old.slabs
		}
		fl.list = append(fl.list[:0], fl.list[1:]...)
	}
	fl.list = append(fl.list, h)
	fl.mu.Unlock()
}
