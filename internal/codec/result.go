package codec

import (
	"bytes"
	"encoding/json"
	"sort"

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
	return envelope(KindResult, func(e *enc) {
		var meta enc
		meta.str(r.Name)
		meta.i64(r.CompileCycles)
		meta.i64(r.RecompileCycles)
		meta.i64(r.PredictedCycles)
		meta.bool(r.OutputsMatch)
		meta.bool(r.Adapted)
		meta.i64s(r.ExcludedLoops)
		meta.bool(r.JITFallback)
		meta.bool(r.OracleChecked)
		e.section(meta.b)

		for _, ph := range []*core.Phase{&r.Seq, &r.Profile, &r.TLS} {
			var p enc
			encPhase(&p, ph)
			e.section(p.b)
		}

		var an enc
		an.bool(r.Analysis != nil)
		if r.Analysis != nil {
			encAnalysis(&an, r.Analysis)
		}
		e.section(an.b)

		var lp enc
		encLoops(&lp, r.Loops)
		e.section(lp.b)
	})
}

// DecodeResult parses a canonical result encoding. Malformed input returns
// an error wrapping one of the typed sentinels; it never panics.
func DecodeResult(b []byte) (*core.Result, error) {
	d, err := openEnvelope(b, KindResult)
	if err != nil {
		return nil, err
	}
	r := &core.Result{}

	meta := d.section()
	r.Name = meta.str()
	r.CompileCycles = meta.i64()
	r.RecompileCycles = meta.i64()
	r.PredictedCycles = meta.i64()
	r.OutputsMatch = meta.bool()
	r.Adapted = meta.bool()
	r.ExcludedLoops = meta.i64s()
	r.JITFallback = meta.bool()
	r.OracleChecked = meta.bool()
	if err := meta.finish("result meta"); err != nil {
		return nil, err
	}

	for _, ph := range []*core.Phase{&r.Seq, &r.Profile, &r.TLS} {
		p := d.section()
		decPhase(p, ph)
		if err := p.finish("result phase"); err != nil {
			return nil, err
		}
	}

	an := d.section()
	if an.bool() {
		r.Analysis = decAnalysis(an)
	}
	if err := an.finish("result analysis"); err != nil {
		return nil, err
	}

	lp := d.section()
	r.Loops = decLoops(lp)
	if err := lp.finish("result loops"); err != nil {
		return nil, err
	}
	if err := d.finish("result"); err != nil {
		return nil, err
	}
	return r, nil
}

func encPhase(e *enc, p *core.Phase) {
	e.i64(p.Cycles)
	e.i64(p.GCCycles)
	e.i64(p.GCRuns)
	e.i64(p.Instructions)
	e.i64s(p.Output)
	e.i64(p.Stats.Serial)
	e.i64(p.Stats.RunUsed)
	e.i64(p.Stats.WaitUsed)
	e.i64(p.Stats.Overhead)
	e.i64(p.Stats.RunViolated)
	e.i64(p.Stats.WaitViolated)
	e.i64(p.Commits)
	e.i64(p.Violations)
	e.i64(p.Overflows)
	e.f64(p.AvgStoreBuf)
	e.f64(p.AvgLoadBuf)
	encI64Map(e, p.OverflowBySTL)
	e.i64(p.L1Hits)
	e.i64(p.L1Misses)
	e.i64(p.L2Hits)
	e.i64(p.L2Misses)
	encTier(e, &p.Tier)
	e.i64s(p.Statics)
	encStrMap(e, p.FaultsFired)
	encGuardStats(e, p.GuardStats)
	e.i64s(p.DecertifiedLoops)
	encLedger(e, p.Ledger)
}

func decPhase(d *dec, p *core.Phase) {
	p.Cycles = d.i64()
	p.GCCycles = d.i64()
	p.GCRuns = d.i64()
	p.Instructions = d.i64()
	p.Output = d.i64s()
	p.Stats = tls.StateStats{
		Serial: d.i64(), RunUsed: d.i64(), WaitUsed: d.i64(),
		Overhead: d.i64(), RunViolated: d.i64(), WaitViolated: d.i64(),
	}
	p.Commits = d.i64()
	p.Violations = d.i64()
	p.Overflows = d.i64()
	p.AvgStoreBuf = d.f64()
	p.AvgLoadBuf = d.f64()
	p.OverflowBySTL = decI64Map(d)
	p.L1Hits = d.i64()
	p.L1Misses = d.i64()
	p.L2Hits = d.i64()
	p.L2Misses = d.i64()
	decTier(d, &p.Tier)
	p.Statics = d.i64s()
	p.FaultsFired = decStrMap(d)
	p.GuardStats = decGuardStats(d)
	p.DecertifiedLoops = d.i64s()
	p.Ledger = decLedger(d)
}

func encTier(e *enc, t *hydra.TierStats) {
	e.i64(t.Promotions)
	e.i64(t.BlocksCompiled)
	e.i64(t.CacheHits)
	e.i64(t.CacheMisses)
	e.i64(t.Linked)
	e.i64(t.InterpSteps)
	e.u64(uint64(len(t.Demote)))
	for _, v := range t.Demote {
		e.i64(v)
	}
	e.i64(t.SpecStretches)
	e.i64(t.SpecStretchInstrs)
	e.i64(t.SpecSleeps)
	e.i64(t.SpecRewinds)
}

func decTier(d *dec, t *hydra.TierStats) {
	t.Promotions = d.i64()
	t.BlocksCompiled = d.i64()
	t.CacheHits = d.i64()
	t.CacheMisses = d.i64()
	t.Linked = d.i64()
	t.InterpSteps = d.i64()
	n := d.count(1)
	if d.err == nil && n != len(t.Demote) {
		d.fail(ErrCorrupt, "tier demote reasons %d, want %d", n, len(t.Demote))
		return
	}
	for i := 0; i < n && d.err == nil; i++ {
		t.Demote[i] = d.i64()
	}
	t.SpecStretches = d.i64()
	t.SpecStretchInstrs = d.i64()
	t.SpecSleeps = d.i64()
	t.SpecRewinds = d.i64()
}

// encI64Map emits an int64-keyed map in ascending key order; nil and empty
// encode identically.
func encI64Map(e *enc, m map[int64]int64) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.i64(k)
		e.i64(m[k])
	}
}

func decI64Map(d *dec) map[int64]int64 {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[int64]int64, n)
	var prev int64
	for i := 0; i < n && d.err == nil; i++ {
		k := d.i64()
		if i > 0 && k <= prev {
			d.fail(ErrCorrupt, "map keys not strictly ascending")
			return nil
		}
		prev = k
		m[k] = d.i64()
	}
	return m
}

func encStrMap(e *enc, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.i64(m[k])
	}
}

func decStrMap(d *dec) map[string]int64 {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail(ErrCorrupt, "map keys not strictly ascending")
			return nil
		}
		prev = k
		m[k] = d.i64()
	}
	return m
}

func encGuardStats(e *enc, m map[int64]tls.GuardLoopStats) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		g := m[k]
		e.i64(k)
		e.i64(g.Commits)
		e.i64(g.Violations)
		e.i64(g.Overflows)
		e.bool(g.Decertified)
		e.i64(g.Decerts)
		e.i64(g.Probes)
		e.i64(g.Recerts)
	}
}

func decGuardStats(d *dec) map[int64]tls.GuardLoopStats {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	m := make(map[int64]tls.GuardLoopStats, n)
	var prev int64
	for i := 0; i < n && d.err == nil; i++ {
		k := d.i64()
		if i > 0 && k <= prev {
			d.fail(ErrCorrupt, "map keys not strictly ascending")
			return nil
		}
		prev = k
		m[k] = tls.GuardLoopStats{
			Commits: d.i64(), Violations: d.i64(), Overflows: d.i64(),
			Decertified: d.bool(), Decerts: d.i64(), Probes: d.i64(), Recerts: d.i64(),
		}
	}
	return m
}

func encLedger(e *enc, snap *obs.LedgerSnapshot) {
	e.bool(snap != nil)
	if snap == nil {
		return
	}
	// The snapshot is deterministically ordered and map-free; its JSON is
	// canonical by construction.
	b, err := json.Marshal(snap)
	if err != nil {
		// A snapshot is plain data; Marshal cannot fail on it. Encode an
		// empty blob rather than corrupting the stream.
		b = nil
	}
	e.u64(uint64(len(b)))
	e.raw(b)
}

func decLedger(d *dec) *obs.LedgerSnapshot {
	if !d.bool() {
		return nil
	}
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail(ErrTruncated, "ledger blob of %d bytes", n)
		return nil
	}
	blob := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	snap := &obs.LedgerSnapshot{}
	if err := json.Unmarshal(blob, snap); err != nil {
		d.fail(ErrCorrupt, "ledger json: %v", err)
		return nil
	}
	// Canonical form is exactly what encLedger emits; accepting any other
	// JSON spelling would break the decode∘encode identity the cache and
	// the conformance fuzzing rely on.
	if canon, err := json.Marshal(snap); err != nil || !bytes.Equal(canon, blob) {
		d.fail(ErrCorrupt, "non-canonical ledger json")
		return nil
	}
	return snap
}

func encAnalysis(e *enc, a *analyzer.Result) {
	e.i64(a.PredictedCycles)
	e.i64(a.ProfiledCycles)
	e.u64(uint64(len(a.Decisions)))
	for _, dn := range a.Decisions {
		e.i64(dn.LoopID)
		e.int(dn.MethodID)
		e.int(dn.LoopIndex)
		e.int(dn.Depth)
		e.bool(dn.Selected)
		e.str(dn.Reason)
		e.bool(dn.Inner)
		encPrediction(e, dn.Prediction)
		e.f64(dn.Coverage)
		e.bool(dn.Stats != nil)
		if dn.Stats != nil {
			encLoopStats(e, dn.Stats)
		}
		e.int(dn.Inductors)
		e.int(dn.Resetable)
		e.int(dn.Reductions)
		e.int(dn.SyncLocks)
		e.int(dn.Comm)
		e.bool(dn.Hoisted)
		e.bool(dn.Multilevel)
	}
}

func decAnalysis(d *dec) *analyzer.Result {
	a := &analyzer.Result{}
	a.PredictedCycles = d.i64()
	a.ProfiledCycles = d.i64()
	n := d.count(8)
	for i := 0; i < n && d.err == nil; i++ {
		dn := &analyzer.LoopDecision{}
		dn.LoopID = d.i64()
		dn.MethodID = d.int()
		dn.LoopIndex = d.int()
		dn.Depth = d.int()
		dn.Selected = d.bool()
		dn.Reason = d.str()
		dn.Inner = d.bool()
		dn.Prediction = decPrediction(d)
		dn.Coverage = d.f64()
		if d.bool() {
			dn.Stats = decLoopStats(d)
		}
		dn.Inductors = d.int()
		dn.Resetable = d.int()
		dn.Reductions = d.int()
		dn.SyncLocks = d.int()
		dn.Comm = d.int()
		dn.Hoisted = d.bool()
		dn.Multilevel = d.bool()
		a.Decisions = append(a.Decisions, dn)
	}
	return a
}

func encPrediction(e *enc, p tracer.Prediction) {
	e.i64(p.SeqCycles)
	e.i64(p.ParCycles)
	e.f64(p.Speedup)
	e.f64(p.Interval)
	e.f64(p.DepBound)
	e.f64(p.CPUBound)
	e.f64(p.Overflow)
}

func decPrediction(d *dec) tracer.Prediction {
	return tracer.Prediction{
		SeqCycles: d.i64(), ParCycles: d.i64(),
		Speedup: d.f64(), Interval: d.f64(), DepBound: d.f64(),
		CPUBound: d.f64(), Overflow: d.f64(),
	}
}

func encLoops(e *enc, loops map[int64]*tracer.LoopStats) {
	keys := make([]int64, 0, len(loops))
	for k := range loops {
		if loops[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.i64(k)
		encLoopStats(e, loops[k])
	}
}

func decLoops(d *dec) map[int64]*tracer.LoopStats {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	m := make(map[int64]*tracer.LoopStats, n)
	var prev int64
	for i := 0; i < n && d.err == nil; i++ {
		k := d.i64()
		if i > 0 && k <= prev {
			d.fail(ErrCorrupt, "map keys not strictly ascending")
			return nil
		}
		prev = k
		m[k] = decLoopStats(d)
	}
	return m
}

func encLoopStats(e *enc, ls *tracer.LoopStats) {
	e.i64(ls.LoopID)
	e.i64(ls.Entries)
	e.i64(ls.Iterations)
	e.i64(ls.TotalCycles)
	keys := make([]uint32, 0, len(ls.Deps))
	for k := range ls.Deps {
		if ls.Deps[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		ds := ls.Deps[k]
		e.u64(uint64(k))
		e.i64(ds.Iters)
		e.i64(ds.SumDist)
		e.i64(ds.MinDist)
		e.i64(ds.SumStoreOff)
		e.i64(ds.MaxStoreOff)
		e.i64(ds.SumLoadOff)
		for _, v := range ds.DistHist {
			e.i64(v)
		}
	}
	e.i64(ls.CriticalIters)
	e.i64(ls.SumCritDist)
	e.i64(ls.SumCritStore)
	e.i64(ls.SumCritLoad)
	e.i64(ls.OverflowIters)
	e.i64(ls.SumLoadLines)
	e.i64(ls.SumStoreLines)
	e.i64(ls.MaxLoadLines)
	e.i64(ls.MaxStoreLines)
	e.i64(ls.Unprofiled)
	e.bool(ls.AbandonedOverflow)
}

func decLoopStats(d *dec) *tracer.LoopStats {
	ls := &tracer.LoopStats{}
	ls.LoopID = d.i64()
	ls.Entries = d.i64()
	ls.Iterations = d.i64()
	ls.TotalCycles = d.i64()
	n := d.count(7 + tracer.DepDistBuckets)
	var prev uint64
	for i := 0; i < n && d.err == nil; i++ {
		ku := d.u64()
		if ku > 1<<32-1 || (i > 0 && ku <= prev) {
			d.fail(ErrCorrupt, "dep keys not strictly ascending uint32")
			break
		}
		prev = ku
		k := uint32(ku)
		ds := &tracer.DepStats{
			Iters: d.i64(), SumDist: d.i64(), MinDist: d.i64(),
			SumStoreOff: d.i64(), MaxStoreOff: d.i64(), SumLoadOff: d.i64(),
		}
		for b := range ds.DistHist {
			ds.DistHist[b] = d.i64()
		}
		if ls.Deps == nil {
			ls.Deps = make(map[uint32]*tracer.DepStats, n)
		}
		ls.Deps[k] = ds
	}
	ls.CriticalIters = d.i64()
	ls.SumCritDist = d.i64()
	ls.SumCritStore = d.i64()
	ls.SumCritLoad = d.i64()
	ls.OverflowIters = d.i64()
	ls.SumLoadLines = d.i64()
	ls.SumStoreLines = d.i64()
	ls.MaxLoadLines = d.i64()
	ls.MaxStoreLines = d.i64()
	ls.Unprofiled = d.i64()
	ls.AbandonedOverflow = d.bool()
	return ls
}
