// Package fleet scales `jrpm serve` from a single node to a sharded fleet
// without touching the pipeline underneath: a consistent-hash router spreads
// submissions over N replicas, a byte-budgeted LRU memoizes results by
// content address (the pipeline is deterministic, so (program, options) is
// a perfect key), singleflight coalescing collapses identical in-flight
// jobs, failover walks the ring past replicas that refuse or drop a job,
// and hedged retries bound tail latency when the owning shard is slow.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jrpm/internal/cache"
	"jrpm/internal/codec"
	"jrpm/internal/obs"
	"jrpm/internal/serve"
)

// Config parameterizes a Router. Zero values select the documented
// defaults.
type Config struct {
	// CacheBytes budgets the result cache (default cache.DefaultMaxBytes;
	// negative disables caching entirely).
	CacheBytes int64
	// VNodes is the virtual-node count per replica on the hash ring
	// (default DefaultVNodes).
	VNodes int
	// HedgeAfter launches a hedge attempt on the next preferred replica
	// when the current attempt has not finished within this duration —
	// deadline risk, in submissions-per-second terms. 0 disables hedging.
	HedgeAfter time.Duration
	// Serve mirrors the replicas' serve.Config. The router derives each
	// submission's effective core.Options from it for the cache key, so it
	// must match what the replicas run — a drift would make the key
	// describe a different simulation than the one memoized.
	Serve serve.Config
}

// Outcome is one routed submission's result.
type Outcome struct {
	// Wire is the canonical codec encoding of the full core.Result.
	Wire []byte
	// Key is the submission's content address (program hash + options
	// digest).
	Key string
	// CacheHit reports the result came from the router cache — no replica
	// was touched.
	CacheHit bool
	// Coalesced reports this caller joined another caller's in-flight run.
	// The view and replica belong to the initiating caller and are not
	// populated here.
	Coalesced bool
	// Replica names the replica that executed the job ("" for cache hits
	// and coalesced joiners).
	Replica string
	// View is the terminal job view from the executing replica (zero for
	// cache hits and coalesced joiners).
	View serve.JobView
}

// Routing errors.
var (
	// ErrNoReplicas rejects a submission because the fleet has no replicas.
	ErrNoReplicas = errors.New("fleet: no replica available")
)

// Router is the fleet front door. Create with New; Do routes one
// submission.
type Router struct {
	cfg      Config
	reg      *obs.Registry
	ring     *Ring
	backends []Backend
	shards   []shardHealth
	cache    *cache.LRU
	group    *cache.Group

	jobs, hedges, failovers, migrations, errs *obs.Counter
}

// shardHealth tracks per-shard dispatch liveness for /replicas.
type shardHealth struct {
	mu           sync.Mutex
	lastDispatch time.Time
	lastResult   time.Time
	lastErr      string
}

func (h *shardHealth) noteDispatch() {
	h.mu.Lock()
	h.lastDispatch = time.Now()
	h.mu.Unlock()
}

func (h *shardHealth) noteResult(err error) {
	h.mu.Lock()
	h.lastResult = time.Now()
	if err != nil {
		h.lastErr = err.Error()
	} else {
		h.lastErr = ""
	}
	h.mu.Unlock()
}

func (h *shardHealth) snapshot() (dispatch, result time.Time, lastErr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastDispatch, h.lastResult, h.lastErr
}

// New builds a router over the given replicas. Replica order fixes shard
// indices; ring positions depend only on replica names.
func New(cfg Config, backends []Backend) *Router {
	reg := obs.NewRegistry()
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	var lru *cache.LRU
	if cfg.CacheBytes >= 0 {
		lru = cache.NewLRU(cfg.CacheBytes, reg)
	}
	rt := &Router{
		cfg:      cfg,
		reg:      reg,
		ring:     NewRing(names, cfg.VNodes),
		backends: backends,
		shards:   make([]shardHealth, len(backends)),
		cache:    lru,
		group:    cache.NewGroup(reg),

		jobs:       reg.Counter("jrpm_fleet_jobs_total"),
		hedges:     reg.Counter("jrpm_fleet_hedges_total"),
		failovers:  reg.Counter("jrpm_fleet_failovers_total"),
		migrations: reg.Counter("jrpm_fleet_migrations_total"),
		errs:       reg.Counter("jrpm_fleet_errors_total"),
	}
	reg.Gauge("jrpm_fleet_replicas").Set(float64(len(backends)))
	return rt
}

// Metrics exposes the router's registry (live; safe for concurrent reads).
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// Ring exposes the hash ring (immutable).
func (rt *Router) Ring() *Ring { return rt.ring }

// Key computes the submission's content address: the program hash combined
// with the digest of the exact core.Options a replica would run the spec
// with at its starting rung. Auto-mode and pinned-tls submissions share a
// key deliberately — both start at the TLS rung with identical options, and
// only undegraded results (which are rung-identical) enter the cache.
func (rt *Router) Key(spec serve.JobSpec) (string, error) {
	key, _, err := rt.key(spec)
	return key, err
}

func (rt *Router) key(spec serve.JobSpec) (key string, cacheable bool, err error) {
	bp, heapWords, err := serve.BuildProgram(spec)
	if err != nil {
		return "", false, err
	}
	first, _, err := serve.ParseMode(spec.Mode)
	if err != nil {
		return "", false, err
	}
	opts, err := rt.cfg.Serve.OptionsFor(spec, first, heapWords)
	if err != nil {
		return "", false, err
	}
	// Trace jobs carry a flight-recorder ring that does not travel in the
	// wire result, so a cached answer would silently lose the trace: bypass.
	return codec.CacheKey(codec.ProgramHash(bp), codec.EncodeOptions(opts)), !spec.Trace, nil
}

// Do routes one submission: cache lookup, then singleflight coalescing,
// then consistent-hash dispatch with hedging and failover. ctx bounds this
// caller's wait; a coalesced run shared with other callers is not
// cancelled when one caller gives up.
func (rt *Router) Do(ctx context.Context, spec serve.JobSpec) (Outcome, error) {
	rt.jobs.Inc()
	key, cacheable, err := rt.key(spec)
	if err != nil {
		rt.errs.Inc()
		return Outcome{}, err
	}
	cacheable = cacheable && rt.cache != nil
	if cacheable {
		if wire, ok := rt.cache.Get(key); ok {
			return Outcome{Wire: wire, Key: key, CacheHit: true}, nil
		}
	} else {
		// Uncacheable jobs are also not coalesced: each caller needs its own
		// server-side job (e.g. its own trace ring).
		wire, view, replica, _, derr := rt.dispatch(ctx, spec, key)
		if derr != nil {
			rt.errs.Inc()
			return Outcome{Key: key, View: view}, derr
		}
		return Outcome{Wire: wire, Key: key, Replica: replica, View: view}, nil
	}

	// execView/execReplica are written by this call's flight function and
	// read only when this caller was the initiator and the flight finished
	// (err == nil && !shared), which the group's done-channel ordering makes
	// safe.
	var execView serve.JobView
	var execReplica string
	wire, shared, err := rt.group.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		w, view, replica, migrated, derr := rt.dispatch(fctx, spec, key)
		if derr != nil {
			return nil, derr
		}
		// Only undegraded done results are memoized: a degraded outcome is a
		// deadline artifact of this submission, not a property of
		// (program, options) — caching it would poison every future hit. A
		// migrated job must additionally have resumed its checkpoint: a
		// migrated-degraded restart is double timing-noise, never cached.
		if view.Status == serve.StatusDone && !view.Degraded && (!migrated || view.Resumed) {
			rt.cache.Put(key, w)
		}
		execView = view
		execReplica = replica
		return w, nil
	})
	if err != nil {
		rt.errs.Inc()
		return Outcome{Key: key, Coalesced: shared}, err
	}
	out := Outcome{Wire: wire, Key: key, Coalesced: shared}
	if !shared {
		out.View = execView
		out.Replica = execReplica
	}
	return out, nil
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	wire []byte
	view serve.JobView
	err  error
	idx  int
}

// dispatch runs the spec on the key's preferred shard, hedging to the next
// shard past the deadline-risk threshold and failing over along the ring
// order on error. A down or full replica fails its attempt at once, so the
// walk skips it for the price of one cheap call. When every attempt of the
// walk has failed and none is still in flight, dispatch walks the order
// once more: a replica that was down for an instant gets a second chance,
// and no shard ever runs two attempts of one dispatch at once. It returns
// the first successful attempt; dcancel interrupts the losers, whose
// results land in resCh's spare capacity. migrated reports that some
// attempt was interrupted (e.g. a draining replica) and the job moved
// shards — possibly resuming from the interrupted replica's checkpoint.
func (rt *Router) dispatch(ctx context.Context, spec serve.JobSpec, key string) (_ []byte, _ serve.JobView, _ string, migrated bool, _ error) {
	order := rt.ring.Order(key)
	if len(order) == 0 {
		return nil, serve.JobView{}, "", false, ErrNoReplicas
	}
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()

	attempts := 2 * len(order) // two walks of the order at most
	resCh := make(chan attemptResult, attempts)
	inflight, next := 0, 0
	// launch starts the next attempt in ring order, if any. The spec is
	// passed by value: a later migration rewrites the local copy's
	// Checkpoint without racing attempts already in flight.
	launch := func() bool {
		if next == attempts || (next == len(order) && inflight > 0) {
			return false
		}
		i := order[next%len(order)]
		next++
		rt.reg.Counter(fmt.Sprintf("jrpm_fleet_dispatch_total{replica=%q}", rt.backends[i].Name())).Inc()
		rt.shards[i].noteDispatch()
		inflight++
		go func(i int, spec serve.JobSpec) {
			w, v, err := rt.backends[i].Run(dctx, spec)
			resCh <- attemptResult{wire: w, view: v, err: err, idx: i}
		}(i, spec)
		return true
	}

	launch()
	var hedge <-chan time.Time
	if rt.cfg.HedgeAfter > 0 {
		hedge = time.After(rt.cfg.HedgeAfter)
	}
	var lastErr error
	for inflight > 0 {
		select {
		case r := <-resCh:
			inflight--
			name := rt.backends[r.idx].Name()
			rt.shards[r.idx].noteResult(r.err)
			if r.err == nil {
				return r.wire, r.view, name, migrated, nil
			}
			if errors.Is(r.err, ErrJobFailed) {
				// The shard worked; the program failed deterministically.
				// Every replica would reproduce it, so failing over would
				// just burn capacity.
				return nil, r.view, name, migrated, r.err
			}
			lastErr = fmt.Errorf("fleet: replica %s: %w", name, r.err)
			if errors.Is(r.err, ErrInterrupted) {
				// The replica drained under us (shutdown, operator cancel).
				// Carry its last checkpoint to the next shard so the job
				// continues mid-simulation instead of restarting.
				migrated = true
				if f, ok := rt.backends[r.idx].(CheckpointFetcher); ok && r.view.ID != 0 {
					if ckpt, cerr := f.Checkpoint(ctx, r.view.ID); cerr == nil && len(ckpt) > 0 {
						spec.Checkpoint = ckpt
					}
				}
				if ctx.Err() == nil && launch() {
					rt.migrations.Inc()
				}
				continue
			}
			if ctx.Err() == nil && launch() {
				rt.failovers.Inc()
			}
		case <-hedge:
			hedge = nil
			if launch() {
				rt.hedges.Inc()
			}
		case <-ctx.Done():
			return nil, serve.JobView{}, "", migrated, context.Cause(ctx)
		}
	}
	return nil, serve.JobView{}, "", migrated, lastErr
}
