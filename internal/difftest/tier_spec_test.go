package difftest

import (
	"reflect"
	"strconv"
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/progen"
	"jrpm/internal/workloads"
)

// TestTierOnOffPhasesIdentical runs the 26 Table 3 workloads and 200 progen
// seeds with the tier-2 engine forced on and forced off, and requires every
// phase of the two runs to be identical: cycles, instructions, output, state
// buckets, cache counters, statics, everything but the engine's own
// counters. The on leg sets Tier2Off explicitly, so under JRPM_TIER=off the
// test still compares the event-driven speculative scheduler (and the serial
// block engine) against the per-cycle reference. A subset runs with the
// doctor's ledger attached and requires identical ledger snapshots too.
func TestTierOnOffPhasesIdentical(t *testing.T) {
	compare := func(t *testing.T, name string, bp *bytecode.Program, opts core.Options) {
		t.Helper()
		on, off := opts, opts
		on.Tier2Off, off.Tier2Off = false, true
		ron, errOn := core.Run(bp, on)
		roff, errOff := core.Run(bp, off)
		if (errOn == nil) != (errOff == nil) || (errOn != nil && errOn.Error() != errOff.Error()) {
			t.Fatalf("%s: error divergence: on %v, off %v", name, errOn, errOff)
		}
		if errOn != nil {
			return
		}
		if ron.TLS.Tier.SpecStretches == 0 && ron.TLS.Commits > 0 {
			t.Errorf("%s: speculative leg ran no stretches with the engine on", name)
		}
		for _, leg := range []struct {
			name    string
			on, off core.Phase
		}{{"seq", ron.Seq, roff.Seq}, {"profile", ron.Profile, roff.Profile}, {"tls", ron.TLS, roff.TLS}} {
			a, b := leg.on, leg.off
			a.Tier, b.Tier = hydra.TierStats{}, hydra.TierStats{}
			if opts.Diagnose && (a.Ledger == nil || b.Ledger == nil) {
				t.Fatalf("%s/%s: diagnose run without a ledger", name, leg.name)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: phases differ:\n  on:  %+v\n  off: %+v", name, leg.name, a, b)
			}
		}
	}

	for i, w := range workloads.All() {
		opts := core.DefaultOptions()
		if w.HeapWords > 0 {
			opts.VM.HeapWords = w.HeapWords
		}
		// Every fourth workload also compares doctor ledgers.
		opts.Diagnose = i%4 == 0
		compare(t, w.Name, w.Build(), opts)
	}

	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		_, bp, err := progen.Lower(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		opts := core.DefaultOptions()
		opts.Diagnose = seed%20 == 0
		compare(t, "progen/"+strconv.FormatInt(seed, 10), bp, opts)
	}
}
