package difftest

// Host-side performance work must never perturb simulated behaviour. Two
// guards enforce that here: rendered reports must be byte-identical run to
// run (and identical between one in-order suite worker and many),
// and the hot simulation paths — TLS store-buffer traffic and TEST
// timestamp recording — must not allocate per access.

import (
	"context"
	"runtime"
	"testing"

	"jrpm/internal/core"
	"jrpm/internal/mem"
	"jrpm/internal/report"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
)

// renderAll turns suite results into the full set of paper tables/figures.
func renderAll(results []*report.SuiteResult) string {
	return report.Table3(results) + report.Table4(results) +
		report.Figure8(results) + report.Figure9(results) +
		report.Figure10(results) + report.CategorySummary(results)
}

// TestReportDeterminism renders the full suite twice — once with one
// worker walking it in order and once fanned out over GOMAXPROCS workers —
// and requires the two reports to be byte-identical. Any divergence means
// simulated state leaked across runs (pool reuse, map iteration order,
// cross-goroutine sharing).
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	inOrder := func() ([]*report.SuiteResult, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return report.RunSuite(context.Background(), core.DefaultOptions(), nil, nil)
	}
	seq, err := inOrder()
	if err != nil {
		t.Fatal(err)
	}
	par, err := report.RunSuite(context.Background(), core.DefaultOptions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderAll(seq), renderAll(par)
	if a != b {
		t.Fatalf("in-order and parallel suite reports differ:\n--- in order ---\n%s\n--- parallel ---\n%s", a, b)
	}
	again, err := inOrder()
	if err != nil {
		t.Fatal(err)
	}
	if c := renderAll(again); c != a {
		t.Fatalf("two in-order suite runs rendered different reports")
	}
}

// TestTLSFastPathAllocs pins the speculative load/store path to zero
// allocations per access once a speculation region is running.
func TestTLSFastPathAllocs(t *testing.T) {
	m := mem.NewMemory(1 << 16)
	caches := mem.NewCacheSim(mem.DefaultCacheConfig(4))
	u := tls.NewUnit(tls.DefaultConfig(4), m, caches)
	if err := u.Start(1); err != nil {
		t.Fatal(err)
	}
	// Touch a handful of lines first so the steady state is re-access.
	for a := mem.Addr(64); a < 96; a++ {
		if _, _, err := u.Store(1, a, int64(a)); err != nil {
			t.Fatal(err)
		}
		u.Load(2, a+64, false)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := u.Store(1, 80, 7); err != nil {
			t.Fatal(err)
		}
		u.Load(1, 80, false)
		u.Load(2, 128, false)
	})
	if allocs != 0 {
		t.Fatalf("TLS store/load fast path allocates %.1f objects per access group, want 0", allocs)
	}
}

// TestTracerFastPathAllocs pins the TEST heap-access recording path (the
// per-load/per-store timestamp CAM updates) to zero allocations.
func TestTracerFastPathAllocs(t *testing.T) {
	cfg := tracer.DefaultConfig()
	cfg.MemWords = 1 << 16
	tr := tracer.New(cfg)
	defer tr.Release()
	now := int64(0)
	tr.OnSloop(1, now)
	// Warm the structures: first touches may grow slabs.
	for a := mem.Addr(256); a < 512; a++ {
		now++
		tr.OnStore(a, now, tracer.ClassHeap)
		now++
		tr.OnLoad(a, now, tracer.ClassHeap)
	}
	allocs := testing.AllocsPerRun(200, func() {
		now++
		tr.OnStore(300, now, tracer.ClassHeap)
		now++
		tr.OnLoad(300, now, tracer.ClassHeap)
		now++
		tr.OnLocalStore(42, 3, now)
		now++
		tr.OnLocalLoad(42, 3, now)
	})
	if allocs != 0 {
		t.Fatalf("tracer record path allocates %.1f objects per access group, want 0", allocs)
	}
}
