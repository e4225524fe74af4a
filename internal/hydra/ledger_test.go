package hydra

import (
	"context"
	"errors"
	"testing"

	"jrpm/internal/isa"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
)

// ledgerMachine builds a booted machine with the doctor's ledger attached.
func ledgerMachine(img *Image) (*Machine, *obs.Ledger) {
	opts := DefaultOptions()
	led := obs.NewLedger(opts.NCPU)
	opts.Ledger = led
	m := NewMachine(img, newStubRuntime(), opts)
	m.Boot()
	return m, led
}

// TestLedgerHotPathZeroAlloc is the observability-cost guarantee for the
// cycle ledger: with a ledger attached, the per-instruction charge and the
// commit flush that hands an attempt's split to the ledger must not
// allocate, on the serial path or the speculative run/wait paths.
func TestLedgerHotPathZeroAlloc(t *testing.T) {
	b := isa.NewBuilder()
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
	m, led := ledgerMachine(img)

	// Serial path: speculation inactive, charges land in Serial.
	if n := testing.AllocsPerRun(500, func() {
		m.TLS.ChargeAttempt(1, tls.ChargeRun, 3)
	}); n != 0 {
		t.Fatalf("serial charge allocates %.1f per op, want 0", n)
	}

	// Speculative path: run and wait charges accumulate in the head's
	// attempt, and its commit flushes the split into the ledger's loop
	// buckets. Iteration i runs on CPU i mod NCPU, so the head rotates.
	m.TLS.Start(1)
	led.BeginSTL(0, obs.LoopParallel)
	head := 0
	if n := testing.AllocsPerRun(500, func() {
		m.TLS.ChargeAttempt(head, tls.ChargeRun, 2)
		m.TLS.ChargeAttempt(head, tls.ChargeWait, 1)
		m.TLS.ChargeAttempt(head, tls.ChargeWaitOverflow, 1)
		if err := m.TLS.CommitEOI(head); err != nil {
			t.Fatal(err)
		}
		head = (head + 1) % len(m.CPUs)
	}); n != 0 {
		t.Fatalf("speculative charge and commit flush allocate %.1f per op, want 0", n)
	}
	led.EndSTL()
	led.Close(m.Clock)
	lb := led.Snapshot().Loop(0).Buckets
	if lb.RunUsed != 2*501 || lb.WaitCommit != 501 || lb.WaitOverflow != 501 {
		t.Fatalf("ledger buckets %+v: each commit must flush run 2, commit-wait 1, overflow-wait 1", lb)
	}
}

// TestLedgerBudgetStopConserves: a run killed by the cycle budget leaves
// attempts in flight; Close must sweep them into Cancelled/InFlight so the
// conservation invariant still holds exactly.
func TestLedgerBudgetStopConserves(t *testing.T) {
	m, led := ledgerMachine(spinImage())
	err := m.Run(10_000)
	if !errors.Is(err, ErrCycleBudgetExceeded) {
		t.Fatalf("err = %v, want ErrCycleBudgetExceeded", err)
	}
	led.Close(m.Clock)
	snap := led.Snapshot()
	if cerr := snap.CheckConservation(); cerr != nil {
		t.Fatal(cerr)
	}
	if snap.WallCycles == 0 {
		t.Fatal("budget-stopped run recorded no wall cycles")
	}
}

// TestLedgerCancelledRunConserves: same invariant when the run dies from
// context cancellation mid-flight.
func TestLedgerCancelledRunConserves(t *testing.T) {
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	opts := DefaultOptions()
	led := obs.NewLedger(opts.NCPU)
	opts.Ledger = led
	opts.Ctx = ctx
	m := NewMachine(spinImage(), newStubRuntime(), opts)
	m.Boot()
	err := m.Run(1 << 40)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	led.Close(m.Clock)
	if cerr := led.Snapshot().CheckConservation(); cerr != nil {
		t.Fatal(cerr)
	}
}
