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
// cycle ledger: the per-instruction charge mirror must not allocate, on
// either the serial path or the speculative run/wait paths.
func TestLedgerHotPathZeroAlloc(t *testing.T) {
	b := isa.NewBuilder()
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
	m, _ := ledgerMachine(img)

	// Serial path: speculation inactive, charges mirror into Serial.
	if n := testing.AllocsPerRun(500, func() {
		m.TLS.ChargeAttemptDiag(1, tls.ChargeRun, 3)
	}); n != 0 {
		t.Fatalf("serial charge mirror allocates %.1f per op, want 0", n)
	}

	// Speculative path: run and wait charges mirror into the tentative
	// attempt accumulators.
	m.TLS.Start(1)
	if n := testing.AllocsPerRun(500, func() {
		m.TLS.ChargeAttemptDiag(1, tls.ChargeRun, 2)
		m.TLS.ChargeAttemptDiag(1, tls.ChargeWait, 1)
		m.TLS.ChargeAttemptDiag(1, tls.ChargeWaitOverflow, 1)
	}); n != 0 {
		t.Fatalf("speculative charge mirror allocates %.1f per op, want 0", n)
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
