package tls

import (
	"testing"

	"jrpm/internal/obs"
)

// TestLedgerRefinesAttemptFlushes drives a unit with the doctor's ledger
// attached: each flush hands the ledger that attempt's run, commit-wait and
// overflow-wait split, a synthetic violation charges every attempt it
// discards to its site, and the ledger's watermarks are the unit's per-CPU
// totals, so the buckets conserve every charged cycle.
func TestLedgerRefinesAttemptFlushes(t *testing.T) {
	u, _ := newTestUnit(2)
	led := obs.NewLedger(2)
	u.SetLedger(led)
	h := u.Config().Handlers

	u.ChargeAttempt(0, ChargeRun, 30) // serial
	if err := u.Start(1); err != nil {
		t.Fatal(err)
	}
	led.BeginSTL(5, obs.LoopParallel)
	u.ChargeAttempt(0, ChargeRun, 10)
	u.ChargeAttempt(0, ChargeWait, 3)
	u.ChargeAttempt(0, ChargeWaitOverflow, 2)
	u.ChargeAttempt(1, ChargeRun, 7)
	u.ChargeAttempt(1, ChargeWaitOverflow, 4)
	if got := u.PendingCycles(0); got != 15 {
		t.Fatalf("CPU0 pending = %d, want 15", got)
	}
	if err := u.CommitEOI(0); err != nil { // CPU0 moves on to iteration 2
		t.Fatal(err)
	}
	lb := led.Snapshot().Loop(5).Buckets
	if lb.RunUsed != 10 || lb.WaitCommit != 3 || lb.WaitOverflow != 2 || lb.HandlerEOI != h.EOI {
		t.Fatalf("after the commit: %+v, want run 10, commit-wait 3, overflow-wait 2, EOI %d", lb, h.EOI)
	}

	// An injected RAW on iteration 1 discards CPU1's attempt and CPU0's
	// younger one (iteration 2: only its EOI cost and 6 run cycles).
	u.ChargeAttempt(0, ChargeRun, 6)
	cpus := u.ViolateSynthetic(1, obs.SiteInjected)
	if len(cpus) != 2 {
		t.Fatalf("violated %v, want both CPUs", cpus)
	}
	snapLoop := led.Snapshot().Loop(5)
	lb = snapLoop.Buckets
	if lb.RunViolated != 13 || lb.WaitViolated != 4 || lb.HandlerRestart != 2*h.Restart {
		t.Fatalf("after the violation: %+v, want run 13, wait 4 violated, 2 restarts", lb)
	}
	if len(snapLoop.Sites) != 1 {
		t.Fatalf("sites %+v, want one synthetic site", snapLoop.Sites)
	}
	if s := snapLoop.Sites[0]; s.Key.Kind != obs.SiteInjected || s.Count != 2 ||
		s.DiscardedRun != 13 || s.DiscardedWait != 4 {
		t.Fatalf("site %+v, want 2 injected discards of 13 run and 4 wait cycles", s)
	}
	// The window closed with the violation: a later discard is charged to
	// the violated buckets but to no site.
	u.ChargeAttempt(0, ChargeRun, 4)
	u.ViolateFrom(2)
	snapLoop = led.Snapshot().Loop(5)
	if snapLoop.Buckets.RunViolated != 17 || snapLoop.Sites[0].Count != 2 {
		t.Fatalf("after an unattributed discard: %+v, site %+v", snapLoop.Buckets, snapLoop.Sites[0])
	}

	u.ChargeAttempt(1, ChargeRun, 5) // in flight when the run stops
	clock := u.ChargedCycles(0)
	if c1 := u.ChargedCycles(1); c1 > clock {
		clock = c1
	}
	led.Close(clock)
	snap := led.Snapshot()
	if err := snap.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if m := snap.Machine; m.Serial != 30 || m.Cancelled != 5 || m.Leaked != 0 {
		t.Fatalf("machine buckets %+v, want serial 30, cancelled 5, leaked 0", m)
	}
}
