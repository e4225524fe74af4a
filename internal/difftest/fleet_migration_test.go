package difftest

// Fleet drain migration: when the shard that owns a job drains mid-run
// (rolling restart, scale-down), the router must carry the replica's last
// safepoint checkpoint to the next shard in ring order and finish the job
// there — resuming mid-simulation, producing wire bytes identical to an
// undisturbed replica run, and only then admitting the result to the cache.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"jrpm/internal/fleet"
	"jrpm/internal/serve"
)

// migrationSource is a single long loop so the drain reliably lands while
// the job is mid-simulation with checkpoints banked. The drain's checkpoint
// sweep lets the job run on for up to 500 ms, so a loop that finishes
// sooner lets the drained owner complete it instead of handing it off; on a
// 2-vCPU x86 machine 2.5M iterations take about a second. Under the race
// detector the same loop takes over 30 s, more than the tls rung's slice
// (half of DefaultDeadline), and the migrated job would degrade instead of
// resuming; 1M iterations take about 14 s there.
func migrationSource() string {
	iters := 2_500_000
	if raceEnabled {
		iters = 1_000_000
	}
	return fmt.Sprintf(`
program migrate
statics 1
method main args=0 locals=2 returns=false
    const 0
    store 1
    const 0
    store 0
  .L:
    load 0
    const %d
    if_icmpge .E
    load 1
    load 0
    const 17
    imul
    iadd
    store 1
    iinc 0 1
    goto .L
  .E:
    load 1
    print
    return
end
`, iters)
}

func TestFleetDrainMigration(t *testing.T) {
	scfg := serve.Config{
		Workers:         2,
		QueueDepth:      8,
		DefaultDeadline: 60 * time.Second,
		CheckpointEvery: 10 * time.Millisecond,
	}
	h := newFleetHarness(t, 2, fleet.Config{Serve: scfg})
	spec := serve.JobSpec{Name: "migrate", Source: migrationSource()}

	key, err := h.router.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	order := h.router.Ring().Order(key)
	owner, survivor := order[0], order[1]

	type outcome struct {
		out fleet.Outcome
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		out, derr := h.router.Do(ctx, spec)
		done <- outcome{out, derr}
	}()

	// Wait until the owning replica has the job running with at least one
	// checkpoint banked, then drain it with zero grace: the shutdown sweep
	// captures a final safepoint and the job is force-cancelled.
	ownerSrv := h.servers[owner]
	var jobID int64
	deadline := time.Now().Add(20 * time.Second)
	for jobID == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner replica never banked a checkpoint")
		}
		for _, v := range ownerSrv.Jobs() {
			if _, cerr := ownerSrv.Checkpoint(v.ID); cerr == nil {
				jobID = v.ID
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now())
	forced := ownerSrv.Shutdown(dctx)
	dcancel()
	if forced != 1 {
		t.Fatalf("owner drain force-cancelled %d jobs, want 1", forced)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("routed job failed across the drain: %v", r.err)
	}
	survivorName := fmt.Sprintf("replica-%d", survivor)
	if r.out.Replica != survivorName {
		t.Fatalf("job finished on %q, want failover to %q", r.out.Replica, survivorName)
	}
	if !r.out.View.Resumed {
		t.Fatal("migrated job restarted from scratch; want a checkpoint resume")
	}
	if n := h.router.Metrics().Counter("jrpm_fleet_migrations_total").Value(); n != 1 {
		t.Fatalf("jrpm_fleet_migrations_total = %d, want 1", n)
	}
	// A resume that fell back to a restart would still produce the same
	// bytes; the counter is what tells them apart.
	for i, s := range h.servers {
		if n := s.Metrics().Counter("jrpm_serve_checkpoint_fallbacks_total").Value(); n != 0 {
			t.Fatalf("replica-%d: jrpm_serve_checkpoint_fallbacks_total = %d, want 0", i, n)
		}
	}

	// The migrated result must be byte-identical to an undisturbed replica
	// run of the same spec.
	mem := serve.New(scfg)
	mem.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mem.Shutdown(ctx)
	}()
	rv, err := mem.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	rview, err := mem.Wait(wctx, rv.ID)
	wcancel()
	if err != nil || rview.Status != serve.StatusDone {
		t.Fatalf("reference run: %+v err=%v", rview, err)
	}
	refWire, err := mem.ResultBytes(rv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.out.Wire, refWire) {
		t.Fatalf("migrated result diverged from undisturbed run (%d vs %d bytes)", len(r.out.Wire), len(refWire))
	}

	// A migrated job that resumed its checkpoint is cache-worthy: the rerun
	// must hit without touching the surviving replica again.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	again, err := h.router.Do(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("resumed migrated result was not cached")
	}
	if !bytes.Equal(again.Wire, refWire) {
		t.Fatal("cached migrated result diverged")
	}
}
