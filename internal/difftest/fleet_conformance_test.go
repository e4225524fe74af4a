package difftest

// The differential fleet-conformance suite is the acceptance bar for the
// sharded fleet: for every Table 3 workload, four ways of obtaining a
// result must agree byte for byte on the canonical wire encoding —
//
//   direct     core.Run with the exact options serve derives for the spec
//   routed     through the fleet router across two live replicas
//   cached     a resubmission served from the router's LRU
//   coalesced  concurrent identical submissions collapsed to one execution
//
// — and the decoded wire must render the paper's tables and figures
// identically to the in-process result. Any divergence means the codec,
// the cache key, or the router changed what the pipeline computes.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"jrpm/internal/cfg"
	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/fleet"
	"jrpm/internal/obs"
	"jrpm/internal/report"
	"jrpm/internal/serve"
	"jrpm/internal/workloads"
)

// fleetHarness is a router over n in-process replicas sharing one serve
// config (the router derives cache keys from the same config the replicas
// run, exactly as a deployed fleet must).
type fleetHarness struct {
	scfg    serve.Config
	servers []*serve.Server
	router  *fleet.Router
}

func newFleetHarness(t testing.TB, n int, fcfg fleet.Config) *fleetHarness {
	t.Helper()
	h := &fleetHarness{scfg: fcfg.Serve}
	backends := make([]fleet.Backend, n)
	for i := 0; i < n; i++ {
		s := serve.New(h.scfg)
		s.Start()
		h.servers = append(h.servers, s)
		backends[i] = &fleet.LocalBackend{ReplicaName: fmt.Sprintf("replica-%d", i), Server: s}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range h.servers {
			s.Shutdown(ctx)
		}
	})
	h.router = fleet.New(fcfg, backends)
	return h
}

// directWire runs the spec the way a replica would — same program build,
// same derived options — and returns the canonical encoding. This is the
// oracle every fleet path is measured against.
func directWire(t testing.TB, scfg serve.Config, spec serve.JobSpec) ([]byte, *core.Result) {
	t.Helper()
	bp, heapWords, err := serve.BuildProgram(spec)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	first, _, err := serve.ParseMode(spec.Mode)
	if err != nil {
		t.Fatalf("%s: mode: %v", spec.Name, err)
	}
	opts, err := scfg.OptionsFor(spec, first, heapWords)
	if err != nil {
		t.Fatalf("%s: options: %v", spec.Name, err)
	}
	// Replicas run every attempt under a cancellable deadline context. The
	// machine's cancel-polling stride keeps tier-2 blocks from fusing across
	// check boundaries, so the host-side tier counters in the wire result
	// depend on whether a cancellable context is attached (simulated cycles
	// do not). Reproduce the replica environment: a cancellable context that
	// never fires.
	dctx, dcancel := context.WithCancel(context.Background())
	defer dcancel()
	opts.Ctx = dctx
	// Trace jobs run with the flight recorder attached, which disables the
	// tier-2 block engine: their tier counters legitimately differ from
	// untraced runs — the reason the router never caches them. Mirror it.
	// The ring's capacity and mask are pure observation — only the
	// recorder's presence changes the wire (tier counters).
	if spec.Trace {
		opts.Recorder = obs.NewRingMasked(1<<18, obs.MaskDefault)
	}
	res, err := core.Run(bp, opts)
	if err != nil {
		t.Fatalf("%s: direct run: %v", spec.Name, err)
	}
	return codec.EncodeResult(res), res
}

// renderOne renders the single-workload slice of every paper artifact that
// depends only on the result (Table 4 needs the transformed variant, which
// does not travel on the wire).
func renderOne(w *workloads.Workload, res *core.Result) string {
	info := cfg.AnalyzeProgram(w.Build())
	sr := &report.SuiteResult{Workload: w, Result: res,
		LoopCount: info.TotalLoops(), MaxDepth: info.MaxLoopDepth()}
	one := []*report.SuiteResult{sr}
	return report.Table3(one) + report.Figure8(one) + report.Figure9(one) +
		report.Figure10(one) + report.CategorySummary(one)
}

// TestFleetConformance is the differential oracle over the full Table 3
// suite: direct vs routed vs cached, plus render-level equality of the
// decoded wire.
func TestFleetConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	h := newFleetHarness(t, 2, fleet.Config{})
	ctx := context.Background()

	for _, w := range workloads.All() {
		spec := serve.JobSpec{Workload: w.Name, Mode: "tls"}
		want, directRes := directWire(t, h.scfg, spec)

		routed, err := h.router.Do(ctx, spec)
		if err != nil {
			t.Fatalf("%s: routed: %v", w.Name, err)
		}
		if routed.CacheHit {
			t.Fatalf("%s: first routed call claimed a cache hit", w.Name)
		}
		if !bytes.Equal(routed.Wire, want) {
			t.Fatalf("%s: routed wire differs from direct run (%d vs %d bytes)",
				w.Name, len(routed.Wire), len(want))
		}

		cached, err := h.router.Do(ctx, spec)
		if err != nil {
			t.Fatalf("%s: cached resubmit: %v", w.Name, err)
		}
		if !cached.CacheHit {
			t.Fatalf("%s: resubmission was not served from cache", w.Name)
		}
		if !bytes.Equal(cached.Wire, want) {
			t.Fatalf("%s: cached wire differs from direct run", w.Name)
		}

		// Render-level equality: a decoded wire result must reproduce the
		// paper artifacts character for character.
		decoded, err := codec.DecodeResult(routed.Wire)
		if err != nil {
			t.Fatalf("%s: decode routed wire: %v", w.Name, err)
		}
		if got, want := renderOne(w, decoded), renderOne(w, directRes); got != want {
			t.Fatalf("%s: reports from decoded wire differ from direct run:\n--- decoded ---\n%s\n--- direct ---\n%s",
				w.Name, got, want)
		}
	}
}

// TestFleetCoalescedConformance pins the fourth leg: concurrent identical
// submissions collapse — every caller gets bytes identical to the direct
// run, and the replicas execute the job at most a handful of times (one
// flight plus stragglers that arrived after it completed and hit the cache).
func TestFleetCoalescedConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	h := newFleetHarness(t, 2, fleet.Config{})
	spec := serve.JobSpec{Workload: "BitOps", Mode: "tls"}
	want, _ := directWire(t, h.scfg, spec)

	const callers = 16
	var wg sync.WaitGroup
	outs := make([]fleet.Outcome, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = h.router.Do(context.Background(), spec)
		}(i)
	}
	wg.Wait()

	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i].Wire, want) {
			t.Fatalf("caller %d: wire differs from direct run", i)
		}
	}
	executed := 0
	for _, s := range h.servers {
		executed += len(s.Jobs())
	}
	if executed == 0 || executed > callers/2 {
		t.Fatalf("replicas executed %d jobs for %d identical concurrent callers", executed, callers)
	}
	reg := h.router.Metrics()
	if v := reg.Counter("jrpm_fleet_coalesce_executions_total").Value(); int(v) != executed {
		t.Fatalf("coalesce executions metric %d, replicas saw %d jobs", v, executed)
	}
	joined := reg.Counter("jrpm_fleet_coalesce_joined_total").Value()
	hits := reg.Counter("jrpm_fleet_cache_hits_total").Value()
	if int64(executed)+joined+hits != callers {
		t.Fatalf("accounting: %d executed + %d joined + %d hits != %d callers",
			executed, joined, hits, callers)
	}
}
