// Package jrpm's root benchmark harness regenerates every table and figure
// of the paper's evaluation section as testing.B benchmarks, reporting the
// headline quantity of each artifact through b.ReportMetric:
//
//	Table 1   -> BenchmarkTable1Overheads        (old/new handler cost ratio)
//	Table 3   -> BenchmarkTable3Suite/<name>     (actual TLS speedup)
//	Table 4   -> BenchmarkTable4Transforms/<name>(transformed speedup)
//	Figure 8  -> BenchmarkFig8Suite/<name>       (profiling, predicted, actual)
//	Figure 9  -> BenchmarkFig9Suite/<name>       (total program speedup)
//	Figure 10 -> BenchmarkFig10Suite/<name>      (violated-time share)
//
// The ablation benchmarks cover the design choices DESIGN.md flags:
// inductors, sync locks, VM modifications, handler generations, buffer
// capacity, CPU count and comparator banks.
//
// Run with: go test -bench=. -benchmem
package jrpm_test

import (
	"context"
	"fmt"
	"testing"

	"jrpm/internal/analyzer"
	"jrpm/internal/bytecode"
	"jrpm/internal/core"
	fe "jrpm/internal/frontend"
	"jrpm/internal/mem"
	"jrpm/internal/obs"
	"jrpm/internal/progen"
	"jrpm/internal/report"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
	"jrpm/internal/workloads"
)

func pipeline(b *testing.B, w *workloads.Workload, transformed bool, opts core.Options) *core.Result {
	b.Helper()
	build := w.Build
	if transformed {
		build = w.BuildTransformed
	}
	// Program construction is frontend work, not simulator work; keep it off
	// the timer. Stop/Start (rather than Reset) so benchmarks that measure
	// two pipelines keep both on the clock.
	b.StopTimer()
	bp := build()
	b.ReportAllocs()
	b.StartTimer()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Run(bp, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OutputsMatch {
			b.Fatalf("%s: speculative output mismatch", w.Name)
		}
	}
	return res
}

// BenchmarkProgenPipeline runs core.Run over a fresh progen program per
// iteration (seeds 1, 2, …; lowering off the timer): short programs whose
// host time goes to machine set-up, JIT, CFG analysis and the analyzer as
// much as to simulation. EXPERIMENTS.md profiles it.
func BenchmarkProgenPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, bp, err := progen.Lower(progen.Generate(int64(i+1), progen.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.Run(bp, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSuite runs the whole Table 3 suite through the parallel
// harness (workloads fanned across GOMAXPROCS); compare against the sum of
// BenchmarkTable3Suite rows for the harness scaling factor.
func BenchmarkParallelSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := report.RunSuite(context.Background(), core.DefaultOptions(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Overheads(b *testing.B) {
	w := workloads.ByName("FourierTest")
	oldOpts := core.DefaultOptions()
	oldOpts.Handlers = tls.OldHandlers
	bp := w.Build()
	b.ReportAllocs()
	b.ResetTimer()
	var newC, oldC int64
	for i := 0; i < b.N; i++ {
		rn, err := core.Run(bp, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ro, err := core.Run(bp, oldOpts)
		if err != nil {
			b.Fatal(err)
		}
		newC, oldC = rn.TLS.Cycles, ro.TLS.Cycles
	}
	b.ReportMetric(float64(newC), "new-handler-cycles")
	b.ReportMetric(float64(oldC), "old-handler-cycles")
	b.ReportMetric(float64(oldC)/float64(newC), "old/new-ratio")
}

func BenchmarkTable3Suite(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			res := pipeline(b, w, false, core.DefaultOptions())
			b.ReportMetric(res.SpeedupActual(), "speedup")
			b.ReportMetric(float64(res.TLS.Violations), "violations")
			b.ReportMetric(res.SerialFraction()*100, "serial%")
			b.ReportMetric(res.TLS.AvgStoreBuf, "stbuf-lines")
			b.ReportMetric(res.TLS.AvgLoadBuf, "ldbuf-lines")
		})
	}
}

// BenchmarkTierCompare pairs tier-on and tier-off pipeline runs on two
// Table 3 workloads so `benchstat` (or the CI smoke step's ns/op ratio) can
// quantify the tier-2 block engine's host-time win. Results are bit-identical
// between the legs — only wall time differs. EXPERIMENTS.md has the recipe.
func BenchmarkTierCompare(b *testing.B) {
	off := core.DefaultOptions()
	off.Tier2Off = true
	for _, name := range []string{"BitOps", "FourierTest"} {
		w := workloads.ByName(name)
		b.Run(name+"/tier=on", func(b *testing.B) {
			pipeline(b, w, false, core.DefaultOptions())
		})
		b.Run(name+"/tier=off", func(b *testing.B) {
			pipeline(b, w, false, off)
		})
	}
}

func BenchmarkTable4Transforms(b *testing.B) {
	for _, w := range workloads.All() {
		if w.BuildTransformed == nil {
			continue
		}
		w := w
		b.Run(w.Name, func(b *testing.B) {
			base := pipeline(b, w, false, core.DefaultOptions())
			tr := pipeline(b, w, true, core.DefaultOptions())
			b.ReportMetric(base.SpeedupActual(), "base-speedup")
			b.ReportMetric(tr.SpeedupActual(), "transformed-speedup")
		})
	}
}

func BenchmarkFig8Suite(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			res := pipeline(b, w, false, core.DefaultOptions())
			seq := float64(res.Seq.Cycles)
			b.ReportMetric(float64(res.Profile.Cycles)/seq, "profiling-norm")
			b.ReportMetric(float64(res.PredictedCycles)/seq, "predicted-norm")
			b.ReportMetric(float64(res.TLS.Cycles)/seq, "actual-norm")
		})
	}
}

func BenchmarkFig9Suite(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			res := pipeline(b, w, false, core.DefaultOptions())
			b.ReportMetric(res.TotalSpeedup(), "total-speedup")
			b.ReportMetric(float64(res.CompileCycles), "compile-cycles")
			b.ReportMetric(float64(res.RecompileCycles), "recompile-cycles")
			b.ReportMetric(float64(res.ProfilingOverheadCycles()), "profiling-cycles")
			b.ReportMetric(float64(res.TLS.GCCycles), "gc-cycles")
		})
	}
}

func BenchmarkFig10Suite(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			res := pipeline(b, w, false, core.DefaultOptions())
			st := res.TLS.Stats
			total := st.Serial*4 + st.RunUsed + st.WaitUsed + st.Overhead +
				st.RunViolated + st.WaitViolated
			if total == 0 {
				total = 1
			}
			pc := func(v int64) float64 { return 100 * float64(v) / float64(total) }
			b.ReportMetric(pc(st.Serial*4), "serial%")
			b.ReportMetric(pc(st.RunUsed), "run-used%")
			b.ReportMetric(pc(st.WaitUsed), "wait-used%")
			b.ReportMetric(pc(st.Overhead), "overhead%")
			b.ReportMetric(pc(st.RunViolated), "run-violated%")
			b.ReportMetric(pc(st.WaitViolated), "wait-violated%")
		})
	}
}

// --- Ablations ---

func analyzerOpts(mod func(*analyzer.Config)) core.Options {
	o := core.DefaultOptions()
	a := analyzer.DefaultConfig()
	a.NCPU = o.NCPU
	a.Handlers = o.Handlers
	a.ParallelAlloc = o.VM.ParallelAlloc
	a.ElideLocks = o.VM.ElideLocks
	mod(&a)
	o.Analyzer = &a
	return o
}

func BenchmarkAblationInductors(b *testing.B) {
	off := analyzerOpts(func(a *analyzer.Config) { a.NoInductors = true; a.NoResetable = true })
	for _, name := range []string{"BitOps", "FourierTest", "shallow"} {
		w := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			on := pipeline(b, w, false, core.DefaultOptions())
			no := pipeline(b, w, false, off)
			b.ReportMetric(on.SpeedupActual(), "with-inductors")
			b.ReportMetric(no.SpeedupActual(), "without-inductors")
		})
	}
}

func BenchmarkAblationSyncLock(b *testing.B) {
	off := analyzerOpts(func(a *analyzer.Config) { a.NoSyncLocks = true })
	for _, name := range []string{"monteCarlo", "db"} {
		w := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			on := pipeline(b, w, false, core.DefaultOptions())
			no := pipeline(b, w, false, off)
			b.ReportMetric(on.SpeedupActual(), "with-sync")
			b.ReportMetric(no.SpeedupActual(), "without-sync")
			b.ReportMetric(float64(no.TLS.Violations-on.TLS.Violations), "violations-added")
		})
	}
}

func BenchmarkAblationParallelAlloc(b *testing.B) {
	// A loop allocating an object per iteration — the §5.2 access pattern:
	// with a shared free list, speculative threads serialize on its head.
	build := func() *bytecode.Program {
		p := fe.NewProgram("allocChurn")
		box := p.Class("Box", "v", "w", "x", "y")
		p.Func("main", nil, false).Body(
			fe.Set("sum", fe.I(0)),
			fe.ForUp("i", fe.I(0), fe.I(256),
				fe.Set("bx", fe.NewE(box)),
				fe.SetField(fe.L("bx"), box, "v", fe.Mul(fe.L("i"), fe.I(3))),
				fe.Set("sum", fe.Add(fe.L("sum"), fe.FieldE(fe.L("bx"), box, "v"))),
			),
			fe.Print(fe.L("sum")),
		)
		return p.MustBuild()
	}
	off := core.DefaultOptions()
	off.VM.ParallelAlloc = false
	bp := build()
	b.ReportAllocs()
	b.ResetTimer()
	var on, no *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		if on, err = core.Run(bp, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		if no, err = core.Run(bp, off); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(on.SpeedupActual(), "per-cpu-lists")
	b.ReportMetric(no.SpeedupActual(), "shared-list")
	b.ReportMetric(float64(no.TLS.Violations-on.TLS.Violations), "violations-added")
}

func BenchmarkAblationLockElision(b *testing.B) {
	off := core.DefaultOptions()
	off.VM.ElideLocks = false
	for _, name := range []string{"jess"} {
		w := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			on := pipeline(b, w, false, core.DefaultOptions())
			no := pipeline(b, w, false, off)
			b.ReportMetric(on.SpeedupActual(), "elided-locks")
			b.ReportMetric(no.SpeedupActual(), "original-locks")
		})
	}
}

func BenchmarkAblationHandlers(b *testing.B) {
	old := core.DefaultOptions()
	old.Handlers = tls.OldHandlers
	for _, name := range []string{"BitOps", "LuFactor", "decJpeg"} {
		w := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			rn := pipeline(b, w, false, core.DefaultOptions())
			ro := pipeline(b, w, false, old)
			b.ReportMetric(rn.SpeedupActual(), "new-handlers")
			b.ReportMetric(ro.SpeedupActual(), "old-handlers")
		})
	}
}

func BenchmarkAblationStoreBuffer(b *testing.B) {
	for _, lines := range []int{16, 32, 64, 128} {
		lines := lines
		b.Run(fmt.Sprintf("lines-%d", lines), func(b *testing.B) {
			o := core.DefaultOptions()
			t := tls.DefaultConfig(o.NCPU)
			t.StoreBufferLines = lines
			o.TLS = &t
			res := pipeline(b, workloads.ByName("fft"), false, o)
			b.ReportMetric(res.SpeedupActual(), "fft-speedup")
			b.ReportMetric(float64(res.TLS.Overflows), "overflow-stalls")
		})
	}
}

func BenchmarkAblationCPUs(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("cpus-%d", n), func(b *testing.B) {
			o := core.DefaultOptions()
			o.NCPU = n
			res := pipeline(b, workloads.ByName("FourierTest"), false, o)
			b.ReportMetric(res.SpeedupActual(), "speedup")
		})
	}
}

func BenchmarkAblationComparatorBanks(b *testing.B) {
	for _, n := range []int{1, 2, 8} {
		n := n
		b.Run(fmt.Sprintf("banks-%d", n), func(b *testing.B) {
			o := core.DefaultOptions()
			t := tracer.DefaultConfig()
			t.NumBanks = n
			o.Tracer = &t
			res := pipeline(b, workloads.ByName("LuFactor"), false, o)
			b.ReportMetric(res.SpeedupActual(), "speedup")
		})
	}
}

// BenchmarkTLSFastPath measures the per-access cost of the speculative
// store-buffer structures (store + forwarded load + cross-CPU load). It must
// report 0 allocs/op; difftest pins the same property with AllocsPerRun.
func BenchmarkTLSFastPath(b *testing.B) {
	m := mem.NewMemory(1 << 16)
	caches := mem.NewCacheSim(mem.DefaultCacheConfig(4))
	u := tls.NewUnit(tls.DefaultConfig(4), m, caches)
	if err := u.Start(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := u.Store(1, 80, int64(i)); err != nil {
			b.Fatal(err)
		}
		u.Load(1, 80, false)
		u.Load(2, 128, false)
	}
}

// BenchmarkTraceOverhead quantifies the flight recorder's cost on a full
// pipeline run: "off" is the baseline (nil Recorder, the zero-overhead
// contract — the hot path must not even branch into event construction),
// "on" attaches a default-mask event ring, reset each iteration. The PR
// budget is <5%% wall-clock overhead with tracing on and 0%% (plus 0
// allocs/op, pinned by TestRecorderHotPathZeroAlloc) when disabled.
//
// Both legs pin Tier2Off: attaching a recorder self-disables the tier-2
// block engine on the speculative phase, so an unpinned "off" leg would run
// a faster tier there and the comparison would conflate recorder cost with
// tier choice.
func BenchmarkTraceOverhead(b *testing.B) {
	w := workloads.ByName("BitOps")
	bp := w.Build()
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := core.DefaultOptions()
			o.Tier2Off = true
			res, err := core.Run(bp, o)
			if err != nil {
				b.Fatal(err)
			}
			if !res.OutputsMatch {
				b.Fatal("output mismatch")
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		ring := obs.NewRingMasked(1<<20, obs.MaskDefault)
		b.ReportAllocs()
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			ring.Reset()
			o := core.DefaultOptions()
			o.Tier2Off = true
			o.Recorder = ring
			res, err := core.Run(bp, o)
			if err != nil {
				b.Fatal(err)
			}
			if !res.OutputsMatch {
				b.Fatal("output mismatch")
			}
			events = ring.Total()
		}
		b.ReportMetric(float64(events), "events")
	})
}

// BenchmarkDiagnoseOverhead quantifies the speculation doctor's cost on a
// full pipeline run: "off" is the baseline (no ledger — the per-instruction
// charge path keeps its undiagnosed shape and inlining, pinned bit-identical
// and allocation-free by TestDiagnoseConservesAndIsInvisible and
// TestLedgerHotPathZeroAlloc), "on" attaches the cycle-conservation ledger
// to every phase. The PR budget is <5% wall-clock overhead with diagnosis
// on and 0% when disabled.
func BenchmarkDiagnoseOverhead(b *testing.B) {
	w := workloads.ByName("BitOps")
	bp := w.Build()
	for _, diag := range []bool{false, true} {
		name := "off"
		if diag {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptions()
				o.Diagnose = diag
				res, err := core.Run(bp, o)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OutputsMatch {
					b.Fatal("output mismatch")
				}
			}
		})
	}
}

// BenchmarkTracerFastPath measures the per-access cost of the TEST
// timestamp-memory record path (heap store/load + local store/load). It must
// report 0 allocs/op.
func BenchmarkTracerFastPath(b *testing.B) {
	cfg := tracer.DefaultConfig()
	cfg.MemWords = 1 << 16
	tr := tracer.New(cfg)
	defer tr.Release()
	now := int64(0)
	tr.OnSloop(1, now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		tr.OnStore(300, now, tracer.ClassHeap)
		now++
		tr.OnLoad(300, now, tracer.ClassHeap)
		now++
		tr.OnLocalStore(42, 3, now)
		now++
		tr.OnLocalLoad(42, 3, now)
	}
}
