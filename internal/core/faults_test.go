package core

import (
	"testing"

	"jrpm/internal/faultinject"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// TestZeroFaultPlanLeavesCyclesUnchanged: plumbing a zero plan through the
// whole pipeline must not move a single cycle — the guarantee that lets the
// benchmark binaries keep the flag wiring always installed.
func TestZeroFaultPlanLeavesCyclesUnchanged(t *testing.T) {
	base, err := Run(vectorKernel(400), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Faults = &faultinject.Plan{Seed: 7} // all rates zero
	zeroed, err := Run(vectorKernel(400), opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.TLS.Cycles != zeroed.TLS.Cycles || base.Seq.Cycles != zeroed.Seq.Cycles {
		t.Fatalf("zero plan moved cycles: tls %d vs %d, seq %d vs %d",
			base.TLS.Cycles, zeroed.TLS.Cycles, base.Seq.Cycles, zeroed.Seq.Cycles)
	}
	if zeroed.OracleChecked {
		t.Error("zero plan should not trigger the oracle cross-check")
	}
}

// TestFaultPlanOracleChecksSpeculativeState: under an active plan the
// speculative run is cross-checked (outputs and final static state) against
// the sequential run, and survives the injected adversity.
func TestFaultPlanOracleChecksSpeculativeState(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = &faultinject.Plan{
		Seed: 3, RAW: 0.02, Overflow: 0.1, Bus: 0.3, BusDelay: 6, Heap: 0.01,
	}
	res, err := Run(vectorKernel(400), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OracleChecked {
		t.Fatal("active plan must run the post-commit oracle")
	}
	if !res.OutputsMatch {
		t.Fatalf("outputs differ under faults: seq %v, tls %v", res.Seq.Output, res.TLS.Output)
	}
	if len(res.TLS.FaultsFired) == 0 {
		t.Error("plan with these rates should have fired at least one fault")
	}
}

// TestJITFailurePlanFallsBackToSequentialImage: when every TLS lowering is
// made to fail, the controller keeps the plain image for the speculative
// phase and the run still completes with the right answer.
func TestJITFailurePlanFallsBackToSequentialImage(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = &faultinject.Plan{Seed: 1, JIT: 1}
	res, err := Run(vectorKernel(200), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.JITFallback {
		t.Fatal("jit=1 plan must force the sequential-image fallback")
	}
	if !res.OutputsMatch {
		t.Fatalf("fallback outputs differ: seq %v, tls %v", res.Seq.Output, res.TLS.Output)
	}
	if !res.OracleChecked {
		t.Error("oracle should still cross-check the fallback run")
	}
}

// TestGuardDecertifiesUnderViolationStorm: heavy injected RAW pressure makes
// a healthy loop thrash; with the guard on, the run demotes it to sequential
// execution, finishes correctly, and reports the decertification.
func TestGuardDecertifiesUnderViolationStorm(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = &faultinject.Plan{Seed: 13, RAW: 0.5}
	cfg := tls.GuardConfig{Window: 8, Decertify: 2, Backoff: 1 << 30, MaxBackoff: 1 << 30}
	opts.Guard = &cfg
	res, err := Run(vectorKernel(400), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputsMatch {
		t.Fatalf("outputs differ: seq %v, tls %v", res.Seq.Output, res.TLS.Output)
	}
	if len(res.TLS.DecertifiedLoops) == 0 {
		t.Fatalf("no loop decertified under raw=0.5; guard stats: %+v", res.TLS.GuardStats)
	}
	var decerts int64
	for _, st := range res.TLS.GuardStats {
		decerts += st.Decerts
	}
	if decerts == 0 {
		t.Errorf("guard stats show no decertifications: %+v", res.TLS.GuardStats)
	}
}

// TestCycleBudgetSurfacesFromOptions: a tiny budget fails the run with a
// typed error instead of hanging or panicking.
func TestCycleBudgetSurfacesFromOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxCycles = 100
	if _, err := Run(vectorKernel(400), opts); err == nil {
		t.Fatal("100-cycle budget should fail the run")
	}
}

// TestGuardedFaultRunRepeats runs deltaBlue with the guard and an injected
// RAW plan many times and requires one result. The guard's demotion to
// solo kills attempts that allocated speculatively; their blocks stay in
// the VM's allocation registry while the discarded stores leave memory
// listing the same words as free. The collector must reconcile the two:
// when it swept both into overlapping free spans, their order depended on
// Go map iteration and the TLS cycle count varied from run to run.
func TestGuardedFaultRunRepeats(t *testing.T) {
	w := workloads.ByName("deltaBlue")
	plan, err := faultinject.Parse("seed=3,raw=0.05")
	if err != nil {
		t.Fatal(err)
	}
	gcfg := tls.DefaultGuardConfig()
	var first *Result
	for i := 0; i < 12; i++ {
		opts := DefaultOptions()
		opts.VM.HeapWords = w.HeapWords
		opts.Faults = &plan
		opts.Guard = &gcfg
		res, err := Run(w.Build(), opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.TLS.Cycles != first.TLS.Cycles || res.TLS.GCCycles != first.TLS.GCCycles ||
			res.TLS.Instructions != first.TLS.Instructions {
			t.Fatalf("run %d: TLS cycles %d, GC cycles %d, instructions %d; run 0: %d, %d, %d",
				i, res.TLS.Cycles, res.TLS.GCCycles, res.TLS.Instructions,
				first.TLS.Cycles, first.TLS.GCCycles, first.TLS.Instructions)
		}
	}
}
