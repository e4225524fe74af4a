package codec

import (
	"slices"

	"jrpm/internal/analyzer"
	"jrpm/internal/core"
	"jrpm/internal/faultinject"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
)

// EncodeOptions renders the simulation-relevant subset of core.Options in
// canonical wire form. Everything that can change the bytes of a Result is
// covered: machine shape, handler costs, VM modifications, the optional
// analyzer/TLS/cache/tracer configs, fault plan, guard, storm limit,
// cycle budget, the pipeline toggles, Diagnose (it adds the ledger payload
// to the result) and Tier2Off (it changes the result's tier counters).
//
// The two runtime-only fields — Ctx and Recorder — are deliberately not
// carried: they parameterize host-side execution, not the simulated
// outcome, and a flight-recorder ring cannot meaningfully travel in a
// cache key. Decode returns them zero.
func EncodeOptions(o core.Options) []byte {
	return encode(KindOptions, &o, (*coder).options)
}

// DecodeOptions parses a canonical options encoding.
func DecodeOptions(b []byte) (core.Options, error) {
	var o core.Options
	if err := decode(b, KindOptions, &o, (*coder).options); err != nil {
		return core.Options{}, err
	}
	return o, nil
}

func (c *coder) options(o *core.Options) {
	s := c.open()
	c.int(&o.NCPU)
	c.handlers(&o.Handlers)
	c.bool(&o.VM.ParallelAlloc)
	c.bool(&o.VM.ElideLocks)
	c.int(&o.VM.HeapWords)
	c.int(&o.VM.ChunkWords)
	c.i64(&o.MaxCycles)
	c.bool(&o.AdaptiveReprofile)
	c.bool(&o.NoInline)
	c.i64(&o.StormLimit)
	c.bool(&o.Diagnose)
	c.bool(&o.Tier2Off)
	c.close(s, "options scalars")

	// Optional sub-configurations, each behind a presence flag.
	s = c.open()
	optional(c, &o.Analyzer, (*coder).analyzerConfig)
	optional(c, &o.TLS, (*coder).tlsConfig)
	optional(c, &o.Cache, (*coder).cacheConfig)
	optional(c, &o.Tracer, (*coder).tracerConfig)
	optional(c, &o.Faults, (*coder).faultPlan)
	optional(c, &o.Guard, (*coder).guardConfig)
	c.close(s, "options subconfigs")
}

func (c *coder) handlers(h *tls.HandlerCosts) {
	c.i64(&h.Startup)
	c.i64(&h.Shutdown)
	c.i64(&h.EOI)
	c.i64(&h.Restart)
}

func (c *coder) tlsConfig(t *tls.Config) {
	c.int(&t.NCPU)
	c.int(&t.StoreBufferLines)
	c.int(&t.LoadBufferLines)
	c.handlers(&t.Handlers)
	c.bool(&t.ChaosNoWordValid)
}

func (c *coder) cacheConfig(m *mem.CacheConfig) {
	c.int(&m.NCPU)
	c.int(&m.L1Lines)
	c.int(&m.L1Assoc)
	c.int(&m.L2Lines)
	c.int(&m.L2Assoc)
	c.i64(&m.LatL1)
	c.i64(&m.LatL2)
	c.i64(&m.LatMem)
	c.i64(&m.LatInter)
}

func (c *coder) tracerConfig(t *tracer.Config) {
	c.int(&t.NumBanks)
	c.int(&t.StoreBufferLines)
	c.int(&t.LoadBufferLines)
	c.int(&t.StartRing)
	c.int(&t.MemWords)
}

func (c *coder) faultPlan(p *faultinject.Plan) {
	c.i64(&p.Seed)
	c.f64(&p.RAW)
	c.f64(&p.Overflow)
	c.f64(&p.Bus)
	c.i64(&p.BusDelay)
	c.f64(&p.Heap)
	c.f64(&p.JIT)
}

func (c *coder) guardConfig(g *tls.GuardConfig) {
	c.i64(&g.Window)
	c.f64(&g.BadViolationRatio)
	c.f64(&g.BadOverflowRatio)
	c.int(&g.Decertify)
	c.i64(&g.Backoff)
	c.i64(&g.MaxBackoff)
}

func (c *coder) analyzerConfig(a *analyzer.Config) {
	c.int(&a.NCPU)
	c.handlers(&a.Handlers)
	c.f64(&a.MinItersPerEntry)
	c.f64(&a.MaxOverflowFreq)
	c.f64(&a.MinSpeedup)
	c.f64(&a.SyncDepFreq)
	c.f64(&a.SyncMaxSpanFrac)
	c.f64(&a.MultilevelRatio)
	c.bool(&a.ParallelAlloc)
	c.bool(&a.ElideLocks)
	c.f64(&a.HoistMaxIters)
	c.i64(&a.HoistMinEntries)
	c.bool(&a.NoInductors)
	c.bool(&a.NoResetable)
	c.bool(&a.NoReductions)
	c.bool(&a.NoSyncLocks)
	c.bool(&a.NoMultilevel)
	c.bool(&a.NoHoisting)

	// ExcludeLoops is a set: only its true members travel, ascending, and
	// decoding requires them strictly ascending.
	var ids []int64
	if !c.dec {
		for id, on := range a.ExcludeLoops {
			if on {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
	}
	c.i64s(&ids)
	if !c.dec || len(ids) == 0 {
		return
	}
	a.ExcludeLoops = make(map[int64]bool, len(ids))
	for i, id := range ids {
		if i > 0 && id <= ids[i-1] {
			c.fail(ErrCorrupt, "exclude-loop set not strictly ascending")
			return
		}
		a.ExcludeLoops[id] = true
	}
}
