package difftest

// The chaos storm drives the fleet the way an unlucky operator would: 64
// concurrent clients hammer a 3-replica fleet with a mixed spec workload
// while a chaos goroutine kills and revives one replica at a time. The
// invariant under all of it is *zero cross-job corruption*: every
// successful submission must return wire bytes identical to the expected
// encoding for its spec, precomputed from a direct pipeline run — a result
// served from the wrong cache entry, a torn coalesced flight, or a stale
// failover would all show up as a byte mismatch.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jrpm/internal/fleet"
	"jrpm/internal/progen"
	"jrpm/internal/serve"
)

// chaosBackend gates a live replica behind a kill switch: down replicas
// refuse new submissions (the router sees a transport error and must fail
// over), revived replicas serve again. In-flight jobs on the inner server
// are never torn, matching a replica whose listener died.
type chaosBackend struct {
	inner fleet.Backend
	down  atomic.Bool
}

func (c *chaosBackend) Name() string { return c.inner.Name() }

func (c *chaosBackend) Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error) {
	if c.down.Load() {
		return nil, serve.JobView{}, errors.New("chaos: replica down")
	}
	return c.inner.Run(ctx, spec)
}

func TestFleetChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm of full pipeline runs")
	}
	scfg := serve.Config{}
	servers := make([]*serve.Server, 3)
	chaos := make([]*chaosBackend, 3)
	backends := make([]fleet.Backend, 3)
	for i := range servers {
		servers[i] = serve.New(scfg)
		servers[i].Start()
		chaos[i] = &chaosBackend{inner: &fleet.LocalBackend{
			ReplicaName: fmt.Sprintf("replica-%d", i), Server: servers[i]}}
		backends[i] = chaos[i]
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Shutdown(ctx)
		}
	})
	rt := fleet.New(fleet.Config{Serve: scfg}, backends)

	// A small spec population with precomputed expected wire bytes. Every
	// successful routed result must match its spec's entry exactly. Trace
	// jobs carry the flight recorder (tier-2 disabled), so their expected
	// wire is computed separately.
	const nspecs = 6
	specs := make([]serve.JobSpec, nspecs)
	expected := make([][]byte, nspecs)
	expectedTrace := make([][]byte, nspecs)
	for i := range specs {
		src, err := progen.Asm(progen.Generate(int64(100+i), progen.QuickConfig()))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = serve.JobSpec{Name: fmt.Sprintf("storm-%d", i), Source: src, Mode: "tls"}
		expected[i], _ = directWire(t, scfg, specs[i])
		tspec := specs[i]
		tspec.Trace = true
		expectedTrace[i], _ = directWire(t, scfg, tspec)
	}

	// Deterministic failover before the storm: kill spec 0's owning shard
	// and prove the fleet routes around it (trace jobs bypass the cache, so
	// this dispatches even if the storm later would not).
	key, err := rt.Key(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	owner := rt.Ring().Order(key)[0]
	chaos[owner].down.Store(true)
	traceSpec := specs[0]
	traceSpec.Trace = true
	out, err := rt.Do(context.Background(), traceSpec)
	if err != nil {
		t.Fatalf("failover around killed owner: %v", err)
	}
	if out.Replica == chaos[owner].Name() {
		t.Fatalf("killed owner %s served the job", out.Replica)
	}
	if !bytes.Equal(out.Wire, expectedTrace[0]) {
		t.Fatal("failover result differs from direct run")
	}
	chaos[owner].down.Store(false)
	if v := rt.Metrics().Counter("jrpm_fleet_failovers_total").Value(); v == 0 {
		t.Fatal("no failover recorded for the killed owner")
	}

	// The storm: one chaos goroutine cycles kills across the replicas (at
	// most one down at any instant, so the fleet always has capacity) while
	// 64 clients submit. Odd iterations use trace jobs to force live
	// dispatch under chaos; even iterations exercise cache and coalescing.
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for i := 0; ; i++ {
			target := chaos[i%len(chaos)]
			target.down.Store(true)
			select {
			case <-stop:
				target.down.Store(false)
				return
			case <-time.After(3 * time.Millisecond):
			}
			target.down.Store(false)
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	const clients = 64
	const iters = 6
	var corrupt, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				idx := (c + it) % nspecs
				spec := specs[idx]
				spec.Trace = it%2 == 1
				want := expected[idx]
				if spec.Trace {
					want = expectedTrace[idx]
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				out, err := rt.Do(ctx, spec)
				cancel()
				if err != nil {
					// With at most one replica down at a time and failover
					// across three shards, submissions must keep succeeding.
					failed.Add(1)
					t.Errorf("client %d iter %d (%s): %v", c, it, spec.Name, err)
					continue
				}
				if !bytes.Equal(out.Wire, want) {
					corrupt.Add(1)
					t.Errorf("client %d iter %d: %s returned foreign bytes (hit=%v coalesced=%v replica=%q)",
						c, it, spec.Name, out.CacheHit, out.Coalesced, out.Replica)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()

	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d cross-job corruptions under chaos", n)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d submissions failed under chaos", n)
	}
	reg := rt.Metrics()
	if v := reg.Counter("jrpm_fleet_cache_hits_total").Value(); v == 0 {
		t.Fatal("storm produced no cache hits")
	}
	t.Logf("storm: %d jobs, %d hits, %d coalesced joins, %d failovers, %d hedges",
		reg.Counter("jrpm_fleet_jobs_total").Value(),
		reg.Counter("jrpm_fleet_cache_hits_total").Value(),
		reg.Counter("jrpm_fleet_coalesce_joined_total").Value(),
		reg.Counter("jrpm_fleet_failovers_total").Value(),
		reg.Counter("jrpm_fleet_hedges_total").Value())
}
