package codec

import (
	"bytes"
	"encoding/json"

	"jrpm/internal/analyzer"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
)

// EncodeResult renders a pipeline outcome in canonical wire form: the name
// and pipeline scalars, the three phases (sequential, profiled,
// speculative) with their full metric payloads, the analyzer's decision
// records, and the per-loop TEST profile statistics.
//
// One field is deliberately not carried: Analysis.Selection, the compiled
// decomposition plan. A serialized result is terminal — it renders every
// report and feeds every metric, but it is not a compilation input — and
// the plan holds pointers into compiler state that has no stable wire
// meaning. DecodeResult leaves it nil.
//
// The optional ledger snapshot (Options.Diagnose runs) travels as a
// length-prefixed canonical JSON blob: the snapshot is already
// deterministically ordered (loops by id, sites by discarded cycles) and
// contains no maps, so its JSON is byte-stable; the envelope version
// guards its schema like every binary section's.
func EncodeResult(r *core.Result) []byte {
	return encode(KindResult, r, (*coder).result)
}

// DecodeResult parses a canonical result encoding. Malformed input returns
// an error wrapping one of the typed sentinels; it never panics.
func DecodeResult(b []byte) (*core.Result, error) {
	r := &core.Result{}
	if err := decode(b, KindResult, r, (*coder).result); err != nil {
		return nil, err
	}
	return r, nil
}

func (c *coder) result(r *core.Result) {
	s := c.open()
	c.str(&r.Name)
	c.i64(&r.CompileCycles)
	c.i64(&r.RecompileCycles)
	c.i64(&r.PredictedCycles)
	c.bool(&r.OutputsMatch)
	c.bool(&r.Adapted)
	c.i64s(&r.ExcludedLoops)
	c.bool(&r.JITFallback)
	c.bool(&r.OracleChecked)
	c.close(s, "result meta")

	c.phase(&r.Seq)
	c.phase(&r.Profile)
	c.phase(&r.TLS)

	s = c.open()
	optional(c, &r.Analysis, (*coder).analysis)
	c.close(s, "result analysis")

	s = c.open()
	sortedMap(c, &r.Loops, 4, nonNil[tracer.LoopStats], (*coder).i64, func(c *coder, ls **tracer.LoopStats) {
		c.loopStats(ptr(c, ls))
	})
	c.close(s, "result loops")
}

// phase walks one phase in a section of its own.
func (c *coder) phase(p *core.Phase) {
	s := c.open()
	c.i64(&p.Cycles)
	c.i64(&p.GCCycles)
	c.i64(&p.GCRuns)
	c.i64(&p.Instructions)
	c.i64s(&p.Output)
	c.stateStats(&p.Stats)
	c.i64(&p.Commits)
	c.i64(&p.Violations)
	c.i64(&p.Overflows)
	c.f64(&p.AvgStoreBuf)
	c.f64(&p.AvgLoadBuf)
	sortedMap(c, &p.OverflowBySTL, 2, nil, (*coder).i64, (*coder).i64)
	c.i64(&p.L1Hits)
	c.i64(&p.L1Misses)
	c.i64(&p.L2Hits)
	c.i64(&p.L2Misses)
	c.tier(&p.Tier)
	c.i64s(&p.Statics)
	sortedMap(c, &p.FaultsFired, 2, nil, (*coder).str, (*coder).i64)
	sortedMap(c, &p.GuardStats, 8, nil, (*coder).i64, (*coder).guardLoopStats)
	c.i64s(&p.DecertifiedLoops)
	optional(c, &p.Ledger, (*coder).ledger)
	c.close(s, "result phase")
}

func (c *coder) stateStats(st *tls.StateStats) {
	c.i64(&st.Serial)
	c.i64(&st.RunUsed)
	c.i64(&st.WaitUsed)
	c.i64(&st.Overhead)
	c.i64(&st.RunViolated)
	c.i64(&st.WaitViolated)
}

func (c *coder) tier(t *hydra.TierStats) {
	c.i64(&t.Promotions)
	c.i64(&t.BlocksCompiled)
	c.i64(&t.CacheHits)
	c.i64(&t.CacheMisses)
	c.i64(&t.Linked)
	c.i64(&t.InterpSteps)
	// Demote is a fixed-length array sent with its length; decoding
	// rejects any other length.
	n := len(t.Demote)
	c.count(&n, 1)
	if n != len(t.Demote) {
		c.fail(ErrCorrupt, "tier demote reasons %d, want %d", n, len(t.Demote))
	}
	for i := range t.Demote {
		c.i64(&t.Demote[i])
	}
	c.i64(&t.SpecStretches)
	c.i64(&t.SpecStretchInstrs)
	c.i64(&t.SpecSleeps)
	c.i64(&t.SpecRewinds)
}

func (c *coder) guardLoopStats(g *tls.GuardLoopStats) {
	c.i64(&g.Commits)
	c.i64(&g.Violations)
	c.i64(&g.Overflows)
	c.bool(&g.Decertified)
	c.i64(&g.Decerts)
	c.i64(&g.Probes)
	c.i64(&g.Recerts)
}

// ledger walks a doctor ledger snapshot as a JSON blob. The snapshot is
// deterministically ordered and map-free, so its JSON is canonical by
// construction; decoding accepts exactly that spelling, which keeps
// decode∘encode the identity.
func (c *coder) ledger(snap *obs.LedgerSnapshot) {
	var blob []byte
	if !c.dec {
		// A snapshot is plain data, so Marshal cannot fail on it; were it
		// to, the blob would be empty rather than the stream corrupt.
		blob, _ = json.Marshal(snap)
	}
	c.blob(&blob)
	if !c.dec || c.err != nil {
		return
	}
	if err := json.Unmarshal(blob, snap); err != nil {
		c.fail(ErrCorrupt, "ledger json: %v", err)
	} else if canon, err := json.Marshal(snap); err != nil || !bytes.Equal(canon, blob) {
		c.fail(ErrCorrupt, "non-canonical ledger json")
	}
}

func (c *coder) analysis(a *analyzer.Result) {
	c.i64(&a.PredictedCycles)
	c.i64(&a.ProfiledCycles)
	list(c, &a.Decisions, 8, (*coder).decision)
}

func (c *coder) decision(pd **analyzer.LoopDecision) {
	d := ptr(c, pd)
	c.i64(&d.LoopID)
	c.int(&d.MethodID)
	c.int(&d.LoopIndex)
	c.int(&d.Depth)
	c.bool(&d.Selected)
	c.str(&d.Reason)
	c.bool(&d.Inner)
	c.i64(&d.Prediction.SeqCycles)
	c.i64(&d.Prediction.ParCycles)
	c.f64(&d.Prediction.Speedup)
	c.f64(&d.Prediction.Interval)
	c.f64(&d.Prediction.DepBound)
	c.f64(&d.Prediction.CPUBound)
	c.f64(&d.Prediction.Overflow)
	c.f64(&d.Coverage)
	optional(c, &d.Stats, (*coder).loopStats)
	c.int(&d.Inductors)
	c.int(&d.Resetable)
	c.int(&d.Reductions)
	c.int(&d.SyncLocks)
	c.int(&d.Comm)
	c.bool(&d.Hoisted)
	c.bool(&d.Multilevel)
}

func (c *coder) loopStats(ls *tracer.LoopStats) {
	c.i64(&ls.LoopID)
	c.i64(&ls.Entries)
	c.i64(&ls.Iterations)
	c.i64(&ls.TotalCycles)
	sortedMap(c, &ls.Deps, 7+tracer.DepDistBuckets, nonNil[tracer.DepStats], u32[uint32], (*coder).depStats)
	c.i64(&ls.CriticalIters)
	c.i64(&ls.SumCritDist)
	c.i64(&ls.SumCritStore)
	c.i64(&ls.SumCritLoad)
	c.i64(&ls.OverflowIters)
	c.i64(&ls.SumLoadLines)
	c.i64(&ls.SumStoreLines)
	c.i64(&ls.MaxLoadLines)
	c.i64(&ls.MaxStoreLines)
	c.i64(&ls.Unprofiled)
	c.bool(&ls.AbandonedOverflow)
}

func (c *coder) depStats(pd **tracer.DepStats) {
	ds := ptr(c, pd)
	c.i64(&ds.Iters)
	c.i64(&ds.SumDist)
	c.i64(&ds.MinDist)
	c.i64(&ds.SumStoreOff)
	c.i64(&ds.MaxStoreOff)
	c.i64(&ds.SumLoadOff)
	for i := range ds.DistHist {
		c.i64(&ds.DistHist[i])
	}
}
