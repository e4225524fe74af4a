package core

import (
	"testing"

	"jrpm/internal/faultinject"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// TestDiagnoseConservesAndIsInvisible runs a few suite workloads through the
// full pipeline with the doctor's ledger attached and checks (a) the
// conservation invariant holds on every phase (core enforces it as a hard
// error, so a clean run is itself the assertion — but re-check explicitly),
// and (b) cycle counts are bit-identical to an undiagnosed run.
func TestDiagnoseConservesAndIsInvisible(t *testing.T) {
	for _, name := range []string{"BitOps", "compress", "monteCarlo"} {
		w := workloads.ByName(name)
		if w == nil {
			t.Fatalf("unknown workload %s", name)
		}
		opts := DefaultOptions()
		if w.HeapWords > 0 {
			opts.VM.HeapWords = w.HeapWords
		}
		base, err := Run(w.Build(), opts)
		if err != nil {
			t.Fatalf("%s: baseline run: %v", name, err)
		}
		opts.Diagnose = true
		diag, err := Run(w.Build(), opts)
		if err != nil {
			t.Fatalf("%s: diagnosed run: %v", name, err)
		}
		for phase, pair := range map[string][2]*Phase{
			"seq":     {&base.Seq, &diag.Seq},
			"profile": {&base.Profile, &diag.Profile},
			"tls":     {&base.TLS, &diag.TLS},
		} {
			b, d := pair[0], pair[1]
			if b.Cycles != d.Cycles {
				t.Errorf("%s/%s: diagnosis changed cycles: %d vs %d", name, phase, b.Cycles, d.Cycles)
			}
			if d.Ledger == nil {
				t.Fatalf("%s/%s: no ledger snapshot", name, phase)
			}
			if err := d.Ledger.CheckConservation(); err != nil {
				t.Errorf("%s/%s: %v", name, phase, err)
			}
			if d.Ledger.Machine.InFlight != 0 {
				t.Errorf("%s/%s: clean run left %d cycles in flight", name, phase, d.Ledger.Machine.InFlight)
			}
			if d.Ledger.Machine.Leaked != 0 {
				t.Errorf("%s/%s: %d cycles leaked", name, phase, d.Ledger.Machine.Leaked)
			}
			if b.Ledger != nil {
				t.Errorf("%s/%s: undiagnosed run grew a ledger", name, phase)
			}
		}
		// The speculative phase of a suite workload must attribute loop work.
		if len(diag.TLS.Ledger.Loops) == 0 {
			t.Errorf("%s: speculative ledger has no loops", name)
		}
	}
}

// TestDiagnoseGuardDemotedConserves drives the guard's solo demotion path
// with the ledger attached: injected RAW pressure makes a healthy loop
// thrash until it decertifies mid-flight, exercising DemoteSolo kills, mode
// switching, solo commits, and the synthetic injected-violation site.
func TestDiagnoseGuardDemotedConserves(t *testing.T) {
	opts := DefaultOptions()
	opts.Faults = &faultinject.Plan{Seed: 13, RAW: 0.5}
	cfg := tls.GuardConfig{Window: 8, Decertify: 2, Backoff: 1 << 30, MaxBackoff: 1 << 30}
	opts.Guard = &cfg
	opts.Diagnose = true
	res, err := Run(vectorKernel(400), opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	led := res.TLS.Ledger
	if led == nil {
		t.Fatal("no ledger")
	}
	if err := led.CheckConservation(); err != nil {
		t.Error(err)
	}
	if len(res.TLS.DecertifiedLoops) == 0 {
		t.Fatal("no loop decertified under raw=0.5")
	}
	var solo, injected int64
	for _, l := range led.Loops {
		solo += l.Buckets.GuardSolo + l.Buckets.GuardProbe
		for _, s := range l.Sites {
			if s.Key.Kind == obs.SiteInjected {
				injected += s.Count
			}
		}
	}
	if solo == 0 {
		t.Error("loops were decertified but no guard solo/probe cycles were attributed")
	}
	if injected == 0 {
		t.Error("injected RAW violations were not attributed to the synthetic site")
	}
}

// TestDiagnoseUnderFaultsAttributesEveryViolation attaches the ledger and a
// fault plan together across the suite. Every phase must conserve with
// nothing leaked, and every discarded attempt must be charged to exactly one
// violation site: the site counts of the speculative phase sum to its
// violation count, whether a store broadcast, an injected RAW or a GC
// quiesce discarded the attempt.
func TestDiagnoseUnderFaultsAttributesEveryViolation(t *testing.T) {
	plan, err := faultinject.Parse("seed=7,raw=0.01,overflow=0.005,heap=0.001")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.SiteKind]int64{}
	for _, w := range workloads.All() {
		opts := DefaultOptions()
		if w.HeapWords > 0 {
			opts.VM.HeapWords = w.HeapWords
		}
		opts.Faults = &plan
		opts.Diagnose = true
		res, err := Run(w.Build(), opts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for phase, ph := range map[string]*Phase{"seq": &res.Seq, "profile": &res.Profile, "tls": &res.TLS} {
			if err := ph.Ledger.CheckConservation(); err != nil {
				t.Errorf("%s/%s: %v", w.Name, phase, err)
			}
			if n := ph.Ledger.Machine.Leaked; n != 0 {
				t.Errorf("%s/%s: %d cycles leaked", w.Name, phase, n)
			}
		}
		var counted int64
		for _, l := range res.TLS.Ledger.Loops {
			for _, s := range l.Sites {
				counted += s.Count
				kinds[s.Key.Kind] += s.Count
			}
		}
		if counted != res.TLS.Violations {
			t.Errorf("%s: sites count %d discarded attempts, the unit %d violations", w.Name, counted, res.TLS.Violations)
		}
	}
	t.Logf("discarded attempts by site kind: %v", kinds)
	if kinds[obs.SiteInjected] == 0 {
		t.Errorf("no injected RAW reached its synthetic site: %v", kinds)
	}
}
