// The differential harness: one generated program, five independent
// executions, every pair of answers cross-checked.
//
// Legs, in order:
//
//  1. oracle    — the frontend AST interpreter, which shares nothing with
//     the bytecode/JIT/Hydra stack below it.
//  2. pipeline  — one core.Run: plain sequential VM, annotated profiling
//     run, and the TLS-speculative run. The harness checks oracle == seq,
//     seq == profile, seq == TLS (output and final statics), plus the
//     structural invariants below.
//  3. rerun     — the same core.Run again; the whole simulator is
//     deterministic, so outputs, statics, cycle counts and the
//     commit/violation/overflow counters must be bit-identical.
//  4. faults    — core.Run with a seed-derived faultinject plan. core's
//     post-commit oracle compares the speculative state against the clean
//     sequential run and fails with ErrOracleMismatch on divergence; the
//     harness treats any such error as a verdict, not a crash.
//  5. solo      — core.Run with a hair-trigger violation-storm guard
//     (decertify on the first bad window, effectively infinite backoff),
//     so any misbehaving STL executes sequentially. Output must still
//     equal the sequential run.
//
// Metamorphic invariants checked on the speculative phase:
//
//   - bucket sanity: every StateStats bucket ≥ 0, and machine time
//     (Stats.Total) ≤ NCPU × wall cycles;
//   - speculative cycles ≥ committed work: the wall clock is at least the
//     serial fraction (which runs on one CPU with no overlap);
//   - counters are non-negative (Commits, Violations, Overflows, Cycles).
package progen

import (
	"fmt"
	"slices"

	"jrpm/internal/core"
	"jrpm/internal/faultinject"
	"jrpm/internal/tls"
)

// CheckConfig selects harness legs and the machine shape.
type CheckConfig struct {
	NCPU      int   `json:"ncpu"`
	MaxCycles int64 `json:"maxCycles,omitempty"`

	// Rerun, Faults and Solo enable legs 3–5. The conformance suite runs
	// all of them; the shrinker usually narrows to the one that diverged.
	Rerun  bool `json:"rerun,omitempty"`
	Faults bool `json:"faults,omitempty"`
	Solo   bool `json:"solo,omitempty"`

	// Chaos disables the store buffer's word-valid bits in the system under
	// test (tls.Config.ChaosNoWordValid). This is the suite's self-test: a
	// chaos run MUST produce a divergence verdict, proving the harness can
	// detect a real forwarding bug.
	Chaos bool `json:"chaos,omitempty"`
}

// DefaultCheckConfig runs every leg on the paper's 4-CPU machine.
func DefaultCheckConfig() CheckConfig {
	return CheckConfig{NCPU: 4, Rerun: true, Faults: true, Solo: true}
}

// Verdict is the outcome of checking one program.
type Verdict struct {
	Seed       int64  `json:"seed"`
	Divergence string `json:"divergence"`       // "" = conformant; else the failing leg
	Detail     string `json:"detail,omitempty"` // human-readable diff summary
	Checks     int    `json:"checks"`           // comparisons performed

	// Counters from the primary speculative run, for reporting.
	Commits    int64 `json:"commits"`
	Violations int64 `json:"violations"`
	Overflows  int64 `json:"overflows"`
}

// Diverged reports whether any leg failed.
func (v *Verdict) Diverged() bool { return v.Divergence != "" }

func (v *Verdict) fail(leg, format string, a ...any) *Verdict {
	v.Divergence = leg
	v.Detail = fmt.Sprintf(format, a...)
	return v
}

// check performs one comparison, recording it.
func (v *Verdict) check(leg string, ok bool, format string, a ...any) bool {
	v.Checks++
	if !ok {
		v.fail(leg, format, a...)
	}
	return ok
}

// Check runs the differential harness over one program tree.
func Check(p *Prog, cc CheckConfig) *Verdict {
	v := &Verdict{Seed: p.Seed}
	if cc.NCPU <= 0 {
		cc.NCPU = 4
	}

	fp, bp, err := Lower(p)
	if err != nil {
		return v.fail("build", "lowering failed: %v", err)
	}

	// Leg 1: the independent AST-interpreter oracle.
	want, err := fp.Interpret(200_000_000)
	if err != nil {
		return v.fail("oracle", "interpreter failed: %v", err)
	}

	opts := baseOptions(cc)
	res, err := core.Run(bp, opts)
	if err != nil {
		return v.fail("pipeline", "core.Run failed: %v", err)
	}

	// Leg 2: oracle vs sequential VM, then sequential vs profiled vs TLS.
	if !v.check("seq-vs-oracle", slices.Equal(want, res.Seq.Output),
		"oracle %v != seq %v", head(want), head(res.Seq.Output)) {
		return v
	}
	if !v.check("seq-vs-profile", slices.Equal(res.Seq.Output, res.Profile.Output),
		"seq %v != profile %v", head(res.Seq.Output), head(res.Profile.Output)) {
		return v
	}
	if !v.check("seq-vs-tls", slices.Equal(res.Seq.Output, res.TLS.Output),
		"seq %v != tls %v", head(res.Seq.Output), head(res.TLS.Output)) {
		return v
	}
	if !v.check("statics", slices.Equal(res.Seq.Statics, res.TLS.Statics),
		"seq statics %v != tls statics %v", res.Seq.Statics, res.TLS.Statics) {
		return v
	}
	v.Commits = res.TLS.Commits
	v.Violations = res.TLS.Violations
	v.Overflows = res.TLS.Overflows
	if !invariants(v, &res.TLS, cc.NCPU) {
		return v
	}

	// Leg 3: rerun determinism — the simulator is a deterministic machine,
	// so every observable of a second identical run must match exactly.
	if cc.Rerun {
		res2, err := core.Run(bp, baseOptions(cc))
		if err != nil {
			return v.fail("rerun", "second run failed: %v", err)
		}
		ok := v.check("rerun-determinism",
			slices.Equal(res.TLS.Output, res2.TLS.Output) &&
				slices.Equal(res.TLS.Statics, res2.TLS.Statics) &&
				res.TLS.Cycles == res2.TLS.Cycles &&
				res.TLS.Commits == res2.TLS.Commits &&
				res.TLS.Violations == res2.TLS.Violations &&
				res.TLS.Overflows == res2.TLS.Overflows,
			"runs differ: cycles %d/%d commits %d/%d violations %d/%d overflows %d/%d",
			res.TLS.Cycles, res2.TLS.Cycles, res.TLS.Commits, res2.TLS.Commits,
			res.TLS.Violations, res2.TLS.Violations, res.TLS.Overflows, res2.TLS.Overflows)
		if !ok {
			return v
		}
	}

	// Leg 4: speculative run under a deterministic fault barrage. core's
	// own post-commit oracle reports divergence as ErrOracleMismatch.
	if cc.Faults {
		fopts := baseOptions(cc)
		fopts.Faults = FaultPlanFor(p.Seed)
		fres, err := core.Run(bp, fopts)
		v.Checks++
		if err != nil {
			return v.fail("faults-oracle", "faulted run: %v", err)
		}
		if !v.check("faults-output", slices.Equal(res.Seq.Output, fres.TLS.Output),
			"seq %v != faulted tls %v", head(res.Seq.Output), head(fres.TLS.Output)) {
			return v
		}
	}

	// Leg 5: hair-trigger guard — any violation window decertifies the STL
	// and the loop runs solo (sequentially). Same answer required.
	if cc.Solo {
		sopts := baseOptions(cc)
		sopts.Guard = SoloGuardConfig()
		sres, err := core.Run(bp, sopts)
		if err != nil {
			return v.fail("solo-guard", "guarded run failed: %v", err)
		}
		if !v.check("solo-guard", slices.Equal(res.Seq.Output, sres.TLS.Output) &&
			slices.Equal(res.Seq.Statics, sres.TLS.Statics),
			"seq %v != solo %v", head(res.Seq.Output), head(sres.TLS.Output)) {
			return v
		}
	}
	return v
}

// baseOptions builds the core options for one leg.
func baseOptions(cc CheckConfig) core.Options {
	opts := core.DefaultOptions()
	opts.NCPU = cc.NCPU
	if cc.MaxCycles > 0 {
		opts.MaxCycles = cc.MaxCycles
	}
	if cc.Chaos {
		tcfg := tls.DefaultConfig(cc.NCPU)
		tcfg.ChaosNoWordValid = true
		opts.TLS = &tcfg
	}
	return opts
}

// FaultPlanFor derives the leg-4 fault plan from the program seed: modest
// rates on every run-time channel. The JIT channel stays at zero so the leg
// actually exercises speculative execution instead of falling back to the
// plain image.
func FaultPlanFor(seed int64) *faultinject.Plan {
	return &faultinject.Plan{
		Seed:     seed ^ 0x5eed,
		RAW:      0.01,
		Overflow: 0.005,
		Bus:      0.02,
		BusDelay: 9,
		Heap:     0.002,
	}
}

// SoloGuardConfig returns a guard that decertifies an STL on its first bad
// window and never re-probes within any realistic run. Ratios are tiny
// positives, not zero — NewGuard replaces non-positive fields with defaults.
func SoloGuardConfig() *tls.GuardConfig {
	return &tls.GuardConfig{
		Window:            2,
		BadViolationRatio: 1e-9,
		BadOverflowRatio:  1e-9,
		Decertify:         1,
		Backoff:           1 << 40,
		MaxBackoff:        1 << 40,
	}
}

// invariants checks the metamorphic properties of a speculative phase.
func invariants(v *Verdict, ph *core.Phase, ncpu int) bool {
	s := ph.Stats
	for _, b := range []struct {
		name string
		val  int64
	}{
		{"Serial", s.Serial}, {"RunUsed", s.RunUsed}, {"WaitUsed", s.WaitUsed},
		{"Overhead", s.Overhead}, {"RunViolated", s.RunViolated},
		{"WaitViolated", s.WaitViolated}, {"Commits", ph.Commits},
		{"Violations", ph.Violations}, {"Overflows", ph.Overflows},
		{"Cycles", ph.Cycles},
	} {
		if !v.check("invariant-nonneg", b.val >= 0, "%s = %d < 0", b.name, b.val) {
			return false
		}
	}
	// Machine time is bounded by NCPU × wall time.
	if !v.check("invariant-machine-time", s.Total() <= int64(ncpu)*ph.Cycles,
		"stats total %d > %d CPUs × %d cycles", s.Total(), ncpu, ph.Cycles) {
		return false
	}
	// The wall clock covers at least the serial portion (which runs on one
	// CPU with no overlap): speculative cycles ≥ committed serial work.
	if !v.check("invariant-serial-bound", s.Serial <= ph.Cycles,
		"serial work %d exceeds wall cycles %d", s.Serial, ph.Cycles) {
		return false
	}
	// Note violated work does NOT imply Violations > 0: an STL that exits
	// early (break) squashes its younger in-flight iterations, discarding
	// their cycles without a violation event — so no such check here.
	return true
}

// head truncates an output stream for error messages.
func head(xs []int64) []int64 {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}
