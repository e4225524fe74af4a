package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jrpm/internal/progen"
	"jrpm/internal/serve"
)

// stubBackend is a scriptable replica: fixed response bytes, optional
// latency, a kill switch and a count of calls to refuse. The response
// encodes the replica name so tests can tell which shard served a request.
type stubBackend struct {
	name     string
	calls    atomic.Int64
	delay    time.Duration
	down     atomic.Bool
	refuse   atomic.Int64 // the next this-many calls fail as if down
	degraded bool
	jobFail  bool

	active, peak atomic.Int64 // concurrent calls now, and at most
}

func (s *stubBackend) Name() string { return s.name }

func (s *stubBackend) Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error) {
	s.calls.Add(1)
	n := s.active.Add(1)
	defer s.active.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, serve.JobView{}, ctx.Err()
		}
	}
	if s.down.Load() || s.refuse.Add(-1) >= 0 {
		return nil, serve.JobView{}, errors.New("stub: connection refused")
	}
	if s.jobFail {
		return nil, serve.JobView{Status: serve.StatusFailed},
			fmt.Errorf("%w: status failed: divide by zero", ErrJobFailed)
	}
	view := serve.JobView{Status: serve.StatusDone, Name: spec.Name, Degraded: s.degraded}
	return []byte("result:" + s.name + ":" + spec.Name), view, nil
}

// testSpec builds a valid routed submission from a progen program.
func testSpec(t testing.TB, seed int64) serve.JobSpec {
	t.Helper()
	src, err := progen.Asm(progen.Generate(seed, progen.QuickConfig()))
	if err != nil {
		t.Fatalf("seed %d: asm: %v", seed, err)
	}
	return serve.JobSpec{Name: fmt.Sprintf("prog-%d", seed), Source: src, Mode: "tls"}
}

// newTestRouter wires n stub replicas into a router and returns both.
func newTestRouter(t testing.TB, n int, cfg Config) (*Router, []*stubBackend) {
	t.Helper()
	stubs := make([]*stubBackend, n)
	backends := make([]Backend, n)
	for i := range stubs {
		stubs[i] = &stubBackend{name: fmt.Sprintf("replica-%d", i)}
		backends[i] = stubs[i]
	}
	return New(cfg, backends), stubs
}

// shardOrder resolves the spec's shard preference as stub indices.
func shardOrder(t testing.TB, rt *Router, spec serve.JobSpec) []int {
	t.Helper()
	key, err := rt.Key(spec)
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	return rt.Ring().Order(key)
}

func TestRouterCacheHit(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 1)

	first, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Replica == "" {
		t.Fatalf("first call: %+v, want a dispatched miss", first)
	}
	second, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("second call missed the cache: %+v", second)
	}
	if !bytes.Equal(first.Wire, second.Wire) {
		t.Fatal("cache hit returned different bytes")
	}
	if total := stubs[0].calls.Load() + stubs[1].calls.Load(); total != 1 {
		t.Fatalf("replicas saw %d calls, want 1", total)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_cache_hits_total").Value(); v != 1 {
		t.Fatalf("hit metric = %d, want 1", v)
	}
}

func TestRouterDegradedResultNotCached(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	for _, s := range stubs {
		s.degraded = true
	}
	spec := testSpec(t, 2)
	for i := 0; i < 2; i++ {
		out, err := rt.Do(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			t.Fatalf("call %d: degraded result served from cache", i)
		}
	}
	if total := stubs[0].calls.Load() + stubs[1].calls.Load(); total != 2 {
		t.Fatalf("replicas saw %d calls, want 2 (degraded results must not be memoized)", total)
	}
}

func TestRouterTraceBypassesCache(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 3)
	spec.Trace = true
	for i := 0; i < 2; i++ {
		if out, err := rt.Do(context.Background(), spec); err != nil {
			t.Fatal(err)
		} else if out.CacheHit || out.Coalesced {
			t.Fatalf("call %d: trace job was cached/coalesced: %+v", i, out)
		}
	}
	if total := stubs[0].calls.Load() + stubs[1].calls.Load(); total != 2 {
		t.Fatalf("replicas saw %d calls, want 2", total)
	}
}

func TestRouterHedgeFiresOnlyPastThreshold(t *testing.T) {
	spec := testSpec(t, 4)

	// Owner slower than the hedge threshold: the hedge fires and the next
	// shard's answer wins.
	rt, stubs := newTestRouter(t, 2, Config{HedgeAfter: 20 * time.Millisecond})
	order := shardOrder(t, rt, spec)
	stubs[order[0]].delay = 300 * time.Millisecond
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Replica != stubs[order[1]].name {
		t.Fatalf("winner %q, want the hedge target %q", out.Replica, stubs[order[1]].name)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_hedges_total").Value(); v != 1 {
		t.Fatalf("hedges = %d, want 1", v)
	}

	// Owner faster than the threshold: no hedge, the owner serves.
	rt2, stubs2 := newTestRouter(t, 2, Config{HedgeAfter: 500 * time.Millisecond})
	order2 := shardOrder(t, rt2, spec)
	stubs2[order2[0]].delay = 10 * time.Millisecond
	out2, err := rt2.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Replica != stubs2[order2[0]].name {
		t.Fatalf("winner %q, want the owner %q", out2.Replica, stubs2[order2[0]].name)
	}
	if v := rt2.Metrics().Counter("jrpm_fleet_hedges_total").Value(); v != 0 {
		t.Fatalf("hedges = %d below threshold, want 0", v)
	}
	if c := stubs2[order2[1]].calls.Load(); c != 0 {
		t.Fatalf("hedge target called %d times below threshold", c)
	}

	// Hedging disabled entirely: a slow owner still serves alone.
	rt3, stubs3 := newTestRouter(t, 2, Config{})
	order3 := shardOrder(t, rt3, spec)
	stubs3[order3[0]].delay = 30 * time.Millisecond
	if _, err := rt3.Do(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if c := stubs3[order3[1]].calls.Load(); c != 0 {
		t.Fatalf("hedge fired with hedging disabled (%d calls)", c)
	}
}

func TestRouterFailoverWithoutCachePoisoning(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 5)
	order := shardOrder(t, rt, spec)
	owner, backup := stubs[order[0]], stubs[order[1]]

	owner.down.Store(true)
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatalf("failover dispatch failed: %v", err)
	}
	if out.Replica != backup.name {
		t.Fatalf("served by %q, want failover to %q", out.Replica, backup.name)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_failovers_total").Value(); v != 1 {
		t.Fatalf("failovers = %d, want 1", v)
	}

	// The owner revives. The cached entry must be the backup's good result,
	// served as a hit — not a stale record of the failure, and not a
	// re-dispatch to the flaky owner.
	owner.down.Store(false)
	again, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !bytes.Equal(again.Wire, out.Wire) {
		t.Fatalf("post-revival call: hit=%v, bytes equal=%v", again.CacheHit, bytes.Equal(again.Wire, out.Wire))
	}
}

func TestRouterDeterministicJobFailureDoesNotFailOver(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 7)
	order := shardOrder(t, rt, spec)
	stubs[order[0]].jobFail = true

	_, err := rt.Do(context.Background(), spec)
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("got %v, want ErrJobFailed", err)
	}
	if c := stubs[order[1]].calls.Load(); c != 0 {
		t.Fatalf("deterministic program failure failed over (%d calls to backup)", c)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_failovers_total").Value(); v != 0 {
		t.Fatalf("failovers = %d, want 0", v)
	}
}

func TestRouterSecondWalkAfterEveryShardFails(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{CacheBytes: -1})
	spec := testSpec(t, 8)
	order := shardOrder(t, rt, spec)
	// Every replica refuses its first call, as if each was down for an
	// instant: the first walk fails on both shards and the second walk
	// starts again at the owner, which now serves.
	for _, s := range stubs {
		s.refuse.Store(1)
	}
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatalf("second walk failed: %v", err)
	}
	if out.Replica != stubs[order[0]].name {
		t.Fatalf("served by %q, want the owner %q on the second walk", out.Replica, stubs[order[0]].name)
	}
	if o, b := stubs[order[0]].calls.Load(), stubs[order[1]].calls.Load(); o != 2 || b != 1 {
		t.Fatalf("owner saw %d calls and backup %d, want 2 and 1", o, b)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_failovers_total").Value(); v != 2 {
		t.Fatalf("failovers = %d, want 2", v)
	}

	// Replicas that keep failing fail the dispatch after two walks, with
	// the last replica's own error.
	for _, s := range stubs {
		s.calls.Store(0)
		s.down.Store(true)
	}
	if _, err := rt.Do(context.Background(), spec); err == nil || errors.Is(err, ErrNoReplicas) {
		t.Fatalf("got %v, want the last replica's error", err)
	}
	for _, s := range stubs {
		if c := s.calls.Load(); c != 2 {
			t.Fatalf("%s saw %d calls with every replica down, want 2", s.name, c)
		}
	}
}

func TestRouterSecondWalkWaitsForFirstWalk(t *testing.T) {
	// The owner is slow and the hedge fires onto the backup, which fails at
	// once. The second walk must not retry the owner while its first
	// attempt still runs: it starts only once that attempt has failed too.
	rt, stubs := newTestRouter(t, 2, Config{CacheBytes: -1, HedgeAfter: 10 * time.Millisecond})
	spec := testSpec(t, 10)
	order := shardOrder(t, rt, spec)
	owner, backup := stubs[order[0]], stubs[order[1]]
	owner.delay = 100 * time.Millisecond
	owner.refuse.Store(1)
	backup.refuse.Store(1)
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatalf("dispatch failed: %v", err)
	}
	if out.Replica != owner.name || owner.calls.Load() != 2 || backup.calls.Load() != 1 {
		t.Fatalf("served by %q after %d owner and %d backup calls, want the owner after 2 and 1",
			out.Replica, owner.calls.Load(), backup.calls.Load())
	}
	for _, s := range stubs {
		if p := s.peak.Load(); p != 1 {
			t.Fatalf("%s ran %d attempts of one dispatch at once", s.name, p)
		}
	}
}

// divideByZero is a program that fails deterministically on every replica.
const divideByZero = `
program divzero
statics 1
method main args=0 locals=1 returns=false
    const 1
    const 0
    idiv
    print
    return
end
`

func TestRouterProgramFailuresDoNotMoveHealthyJobs(t *testing.T) {
	scfg := serve.Config{Workers: 1}
	backends := make([]Backend, 2)
	for i := range backends {
		s := serve.New(scfg)
		s.Start()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		backends[i] = &LocalBackend{ReplicaName: fmt.Sprintf("replica-%d", i), Server: s}
	}
	rt := New(Config{Serve: scfg}, backends)

	// One program fails again and again. The replicas' per-workload
	// breakers open on it; nothing is wrong with either machine.
	bad := serve.JobSpec{Name: "divzero", Source: divideByZero, Mode: "tls"}
	owner := shardOrder(t, rt, bad)[0]
	for i := 0; i < 12; i++ {
		if _, err := rt.Do(context.Background(), bad); err == nil {
			t.Fatalf("submission %d of a divide-by-zero program succeeded", i)
		}
	}

	// Healthy programs the same shard owns must still run there.
	moved, owned := 0, 0
	for seed := int64(1); owned < 6; seed++ {
		spec := testSpec(t, seed)
		if shardOrder(t, rt, spec)[0] != owner {
			continue
		}
		owned++
		out, err := rt.Do(context.Background(), spec)
		if err != nil {
			t.Fatalf("healthy %s: %v", spec.Name, err)
		}
		if out.Replica != backends[owner].Name() {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d of %d healthy jobs owned by %s ran elsewhere after one program's failures",
			moved, owned, backends[owner].Name())
	}
}

func TestRouterCallerTimeout(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 9)
	for _, s := range stubs {
		s.delay = 200 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := rt.Do(ctx, spec); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context deadline", err)
	}
}
