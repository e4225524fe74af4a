package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jrpm/internal/litmus"
	"jrpm/internal/progen"
)

// fuzzCmd drives the differential speculation conformance suite
// (internal/progen): it generates seeded random programs, runs each through
// the seq-vs-TLS differential oracle, and shrinks every divergence to a
// minimal reproducer written to -repros. With -repro FILE it replays one
// reproducer instead.
//
// Exit status: 0 when every seed conforms (with -repro, when the recorded
// verdict still holds), 1 on any divergence (a changed verdict), 2 on a
// usage error.
func fuzzCmd(ctx context.Context, args []string) error {
	var f flags
	fs := f.newFlagSet("fuzz", (*flags).defineCPUs)
	seeds := fs.Int64("seeds", 2000, "number of seeds to check")
	start := fs.Int64("start", 1, "first seed")
	duration := fs.Duration("duration", 0, "stop after this long (0 = no limit)")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel checker goroutines")
	size := fs.String("size", "small", "generator size: quick, small, stress, large")
	cc := progen.DefaultCheckConfig()
	fs.Int64Var(&cc.MaxCycles, "maxcycles", 50_000_000, "per-run simulated cycle budget (livelocks under an injected bug count as divergences)")
	reproDir := fs.String("repros", "internal/progen/testdata/repros", "directory for minimized reproducers")
	budget := fs.Int("budget", 600, "shrink budget (harness evaluations)")
	fs.BoolVar(&cc.Chaos, "chaos", false, "enable the ChaosNoWordValid self-test bug (divergences expected)")
	quick := fs.Bool("quick", false, "skip the rerun/faults/solo legs (seq-vs-TLS only)")
	verbose := fs.Bool("v", false, "log every seed")
	reproFile := fs.String("repro", "", "replay one reproducer JSON and exit")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *reproFile != "" {
		return replay(*reproFile)
	}

	cfg, err := progen.ConfigByName(*size)
	if err != nil {
		return usageError{err}
	}
	cc.NCPU = f.cpus
	if *quick {
		cc.Rerun, cc.Faults, cc.Solo = false, false, false
	}
	// stopped reports -duration or a signal: the workers finish their seeds
	// and the summary still prints.
	stopAt := time.Now().Add(*duration)
	stopped := func() bool { return ctx.Err() != nil || *duration > 0 && time.Now().After(stopAt) }

	var (
		mu        sync.Mutex // serializes shrinking and reporting
		checked   atomic.Int64
		diverged  atomic.Int64
		next      atomic.Int64
		wg        sync.WaitGroup
		startTime = time.Now()
	)
	next.Store(*start)
	last := *start + *seeds // exclusive

	for w := 0; w < max(*jobs, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := next.Add(1) - 1
				if seed >= last || stopped() {
					return
				}
				p := progen.Generate(seed, cfg)
				v := progen.Check(p, cc)
				checked.Add(1)
				if !v.Diverged() {
					if *verbose {
						mu.Lock()
						fmt.Fprintf(stdout, "seed %d ok (%d checks, %d commits, %d violations)\n",
							seed, v.Checks, v.Commits, v.Violations)
						mu.Unlock()
					}
					continue
				}
				diverged.Add(1)
				mu.Lock()
				fmt.Fprintf(stdout, "seed %d DIVERGED on leg %q: %s\n", seed, v.Divergence, v.Detail)
				sr := progen.Shrink(p, cc, *budget)
				if sr.Verdict.Diverged() {
					path, werr := progen.NewRepro(sr, cc).Write(*reproDir)
					if werr != nil {
						fmt.Fprintf(stderr, "jrpm fuzz: writing reproducer: %v\n", werr)
					} else {
						fmt.Fprintf(stdout, "  minimized to %d instructions (%d in kernel) after %d edits / %d checks → %s\n",
							sr.Total, sr.Kernel, sr.Steps, sr.Checks, path)
					}
				} else {
					fmt.Fprintf(stdout, "  shrink lost the divergence after %d checks; keeping the original seed\n",
						sr.Checks)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	n, d := checked.Load(), diverged.Load()
	// The summary line keeps its historical prefix: scripts grep for it.
	fmt.Fprintf(stdout, "jrpm-fuzz: %d seeds checked in %s, %d divergences (size=%s cpus=%d chaos=%v)\n",
		n, time.Since(startTime).Round(time.Millisecond), d, *size, f.cpus, cc.Chaos)
	if d > 0 {
		return exitStatus(1)
	}
	return nil
}

// replay re-runs one stored reproducer and reports whether the recorded
// verdict still holds.
func replay(path string) error {
	r, err := progen.LoadRepro(path)
	if err != nil {
		return usageError{err}
	}
	v := r.Recheck()
	fmt.Fprintf(stdout, "recorded: leg %q (%s)\n", r.Divergence, r.Detail)
	if v.Diverged() {
		fmt.Fprintf(stdout, "current:  leg %q (%s)\n", v.Divergence, v.Detail)
	} else {
		fmt.Fprintf(stdout, "current:  conformant (%d checks)\n", v.Checks)
	}
	if v.Divergence == r.Divergence {
		fmt.Fprintln(stdout, "verdict unchanged")
		return nil
	}
	fmt.Fprintln(stdout, "VERDICT CHANGED")
	return exitStatus(1)
}

// litmusCmd model-checks the TLS coherence protocol (internal/litmus):
// -mode enumerate exhaustively explores one enumeration family, deep runs
// seeded random tests × random schedules, and replay and minimize re-run or
// shrink a persisted counterexample.
//
// Exit status: 0 clean, 1 divergence found (counterexample written), 2
// usage or I/O error.
func litmusCmd(ctx context.Context, args []string) error {
	var f flags
	fs := f.newFlagSet("litmus")
	var spec litmus.EnumSpec
	var opt litmus.Options
	mode := fs.String("mode", "enumerate", "enumerate | deep | replay | minimize")
	fs.IntVar(&spec.Threads, "threads", 2, "scripted iterations (= NCPU), 2-4")
	fs.IntVar(&spec.Addrs, "addrs", 2, "footprint size, 1-4 shared words")
	fs.IntVar(&spec.Len, "len", 2, "ops per script")
	vocab := fs.String("vocab", "basic", "op vocabulary: basic | tracked")
	fs.BoolVar(&spec.Specials, "specials", false, "cross with protocol ops (Partial/Drain/VioY/Demote/Switch/Stop/Track)")
	fs.BoolVar(&spec.SameLine, "sameline", false, "pack the footprint into one cache line")
	fs.IntVar(&spec.StoreLines, "tinystore", 0, "store buffer lines (0 = paper 64)")
	fs.IntVar(&spec.LoadLines, "tinyload", 0, "load buffer lines (0 = paper 512)")
	fs.BoolVar(&spec.Chaos, "chaos", false, "enable ChaosNoWordValid (oracle self-test: divergence expected)")
	fs.BoolVar(&opt.NoPrune, "noprune", false, "disable abstract-state revisit pruning")
	deadline := fs.Duration("deadline", 0, "overall time bound (0 = none)")
	out := fs.String("out", ".", "directory for counterexample JSON")
	caseFile := fs.String("case", "", "counterexample file (replay/minimize modes)")
	seed := fs.Uint64("seed", 1, "deep mode PRNG seed")
	tests := fs.Int("tests", 256, "deep mode: number of random tests")
	schedules := fs.Int("schedules", 64, "deep mode: random schedules per test")
	budget := fs.Int("budget", 400, "minimize mode: exploration budget")
	verbose := fs.Bool("v", false, "per-test progress")
	fs.Parse(args)

	if *deadline > 0 {
		opt.Deadline = time.Now().Add(*deadline)
	}
	// stopped reports the -deadline or a signal: the sweep ends early and
	// reports what it covered.
	stopped := func() bool {
		return ctx.Err() != nil || !opt.Deadline.IsZero() && time.Now().After(opt.Deadline)
	}
	switch *vocab {
	case "basic":
		spec.Vocab = litmus.VocabBasic
	case "tracked":
		spec.Vocab = litmus.VocabTracked
	default:
		return usagef("unknown vocab %q", *vocab)
	}

	switch *mode {
	case "enumerate":
		return runEnumerate(spec, opt, stopped, *out, *budget, *verbose)
	case "deep":
		return runDeep(spec, opt, stopped, *out, *seed, *tests, *schedules, *budget, *verbose)
	case "replay", "minimize":
		if *caseFile == "" {
			return usagef("%s requires -case FILE", *mode)
		}
		pc, err := litmus.ReadPinnedCase(*caseFile)
		if err != nil {
			return usageError{err}
		}
		if *mode == "replay" {
			ok, msg := litmus.CheckPinnedCase(pc, opt)
			switch {
			case !ok:
				fmt.Fprintf(stdout, "replay %s: %s\n", *caseFile, msg)
				return exitStatus(1)
			case pc.ExpectDiverge:
				fmt.Fprintf(stdout, "replay %s: diverged with %s as expected (oracle self-test)\n", *caseFile, pc.Check)
			default:
				fmt.Fprintf(stdout, "replay %s: clean\n", *caseFile)
			}
			return nil
		}
		return runMinimize(*caseFile, pc, opt, *out, *budget)
	}
	return usagef("unknown mode %q", *mode)
}

// reportDivergence minimizes a divergence, prints its timeline, and
// persists it.
func reportDivergence(div *litmus.Counterexample, opt litmus.Options, out string, budget int) {
	fmt.Fprintf(stdout, "DIVERGENCE %s in %s: %s\n", div.Check, div.Test.Name, div.Detail)
	minTest, minCE := litmus.Minimize(&div.Test, div.Check, opt, budget)
	if minCE != nil {
		div = minCE
		div.Test = *minTest
	}
	fmt.Fprintln(stdout, div.Timeline)
	path := filepath.Join(out, fmt.Sprintf("litmus-%s-%d.json", div.Check, time.Now().Unix()))
	if err := litmus.WriteCounterexample(path, div); err != nil {
		fmt.Fprintf(stderr, "jrpm litmus: writing counterexample: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "counterexample written to %s\n", path)
}

func runEnumerate(spec litmus.EnumSpec, opt litmus.Options, stopped func() bool, out string, budget int, verbose bool) error {
	start := time.Now()
	var nTests, nSchedules, nPruned int
	var nSteps int64
	var div *litmus.Counterexample
	timedOut := false
	spec.Enumerate(func(t *litmus.Test) bool {
		if stopped() {
			timedOut = true
			return false
		}
		res, err := litmus.Explore(t, opt)
		if err != nil {
			fmt.Fprintf(stderr, "jrpm litmus: %s: %v\n", t.Name, err)
			div = &litmus.Counterexample{Check: "invalid-test", Detail: err.Error(), Test: *t}
			return false
		}
		nTests++
		nSchedules += res.Schedules
		nPruned += res.Pruned
		nSteps += res.Steps
		if verbose && nTests%500 == 0 {
			fmt.Fprintf(stdout, "  %d tests, %d schedules, %d pruned, %d steps (%.1fs)\n",
				nTests, nSchedules, nPruned, nSteps, time.Since(start).Seconds())
		}
		if res.Div != nil {
			div = res.Div
			return false
		}
		return true
	})
	fmt.Fprintf(stdout, "enumerate %dt/%da/len%d: %d/%d tests, %d schedules (+%d pruned), %d steps in %v\n",
		spec.Threads, spec.Addrs, spec.Len, nTests, spec.Count(), nSchedules, nPruned, nSteps,
		time.Since(start).Round(time.Millisecond))
	if div != nil {
		reportDivergence(div, opt, out, budget)
		return exitStatus(1)
	}
	if timedOut {
		fmt.Fprintf(stdout, "deadline reached: covered %d of %d tests, no divergence in the covered set\n", nTests, spec.Count())
	}
	return nil
}

// runDeep samples random tests from the spec's vocabulary (plus optionally
// one random special per test) and runs random schedules over each.
func runDeep(spec litmus.EnumSpec, opt litmus.Options, stopped func() bool, out string, seed uint64, tests, schedules, budget int, verbose bool) error {
	start := time.Now()
	var nSteps int64
	rng := seed
	for i := 0; i < tests; i++ {
		if stopped() {
			fmt.Fprintf(stdout, "deadline reached after %d of %d tests\n", i, tests)
			break
		}
		t := litmus.RandomTest(spec, &rng, i)
		res, err := litmus.Deep(t, rng, schedules, opt)
		if err != nil {
			return usagef("%s: %v", t.Name, err)
		}
		nSteps += res.Steps
		if verbose && (i+1)%100 == 0 {
			fmt.Fprintf(stdout, "  %d tests, %d steps (%.1fs)\n", i+1, nSteps, time.Since(start).Seconds())
		}
		if res.Div != nil {
			fmt.Fprintf(stdout, "deep sweep: %d tests, %d steps in %v\n", i+1, nSteps, time.Since(start).Round(time.Millisecond))
			reportDivergence(res.Div, opt, out, budget)
			return exitStatus(1)
		}
	}
	fmt.Fprintf(stdout, "deep sweep: %d tests x %d schedules, %d steps in %v, no divergence\n",
		tests, schedules, nSteps, time.Since(start).Round(time.Millisecond))
	return nil
}

// runMinimize shrinks a persisted counterexample that still diverges.
func runMinimize(caseFile string, pc *litmus.PinnedCase, opt litmus.Options, out string, budget int) error {
	res, err := litmus.Explore(&pc.Test, opt)
	if err != nil {
		return usageError{err}
	}
	if res.Div == nil {
		fmt.Fprintf(stdout, "minimize %s: test no longer diverges; nothing to shrink\n", caseFile)
		return nil
	}
	minTest, minCE := litmus.Minimize(&pc.Test, res.Div.Check, opt, budget)
	if minCE == nil {
		fmt.Fprintf(stdout, "minimize %s: could not reproduce %s within budget\n", caseFile, res.Div.Check)
		return exitStatus(2)
	}
	minCE.Test = *minTest
	fmt.Fprintln(stdout, minCE.Timeline)
	path := filepath.Join(out, "minimized-"+filepath.Base(caseFile))
	if err := litmus.WriteCounterexample(path, minCE); err != nil {
		return usageError{err}
	}
	fmt.Fprintf(stdout, "minimized counterexample written to %s\n", path)
	return exitStatus(1)
}
