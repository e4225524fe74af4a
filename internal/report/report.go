// Package report runs the benchmark suite through the Jrpm pipeline and
// renders the paper's evaluation artifacts: Table 1 (TLS overheads), Table 3
// (benchmark characteristics and STL statistics), Table 4 (manual
// transformations), Figure 8 (profiling slowdown / predicted / actual),
// Figure 9 (total program speedup with overheads) and Figure 10 (speculative
// execution state breakdown).
package report

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jrpm/internal/cfg"
	"jrpm/internal/core"
	"jrpm/internal/diagnose"
	"jrpm/internal/hydra"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// SuiteError labels an aborted suite run as partial: the completed prefix of
// results is attached (in suite order) instead of being discarded, and the
// counts make the abort visible in one line. Unwrap exposes the failure that
// aborted the suite, so errors.Is/As classification still works through it.
type SuiteError struct {
	Partial   []*SuiteResult // workloads that completed before the abort
	Total     int            // workloads selected for the run
	Cancelled int            // workloads cancelled in flight or never started
	Err       error          // the failure (or caller cancellation) that aborted the suite
}

// Error renders the abort with its partial-progress counts.
func (e *SuiteError) Error() string {
	return fmt.Sprintf("report: suite aborted: %v (partial: %d/%d done, %d cancelled)",
		e.Err, len(e.Partial), e.Total, e.Cancelled)
}

// Unwrap exposes the aborting failure.
func (e *SuiteError) Unwrap() error { return e.Err }

// cancellation reports whether err is a cancellation artifact (the run was
// killed by the suite's own fail-fast cancel or the caller's context) rather
// than a genuine workload failure.
func cancellation(err error) bool {
	return errors.Is(err, hydra.ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// suiteOutcome folds per-workload results and errors into the public return
// shape: a clean run returns the full slice; an aborted run returns the
// completed prefix plus a SuiteError. The primary error is the
// lowest-indexed genuine failure — cancellation artifacts of the fail-fast
// propagation are only reported when nothing else failed.
func suiteOutcome(results []*SuiteResult, errs []error, ctx context.Context) ([]*SuiteResult, error) {
	var primary, anyErr error
	done := make([]*SuiteResult, 0, len(results))
	cancelled := 0
	for i, r := range results {
		switch {
		case errs[i] == nil && r != nil:
			done = append(done, r)
		case errs[i] != nil && !cancellation(errs[i]):
			if primary == nil {
				primary = errs[i]
			}
		default:
			cancelled++
			if errs[i] != nil && anyErr == nil {
				anyErr = errs[i]
			}
		}
	}
	if primary == nil && anyErr == nil && cancelled == 0 {
		return done, nil
	}
	if primary == nil {
		primary = anyErr
	}
	if primary == nil && ctx != nil { // caller cancelled before anything failed
		primary = context.Cause(ctx)
	}
	return done, &SuiteError{Partial: done, Total: len(results), Cancelled: cancelled, Err: primary}
}

// SuiteResult bundles one workload's pipeline outcome (plus the transformed
// variant's, when Table 4 defines one).
type SuiteResult struct {
	Workload    *workloads.Workload
	Result      *core.Result
	Transformed *core.Result // nil unless the workload has a Table 4 variant
	LoopCount   int
	MaxDepth    int

	// Metrics is the workload's result snapshotted as a typed registry
	// (every metric labelled workload="<name>", transformed variants
	// additionally variant="transformed"), ready for Prometheus text dump
	// or merging via SuiteMetrics.
	Metrics *obs.Registry
}

// progress serializes per-workload progress lines onto one writer shared by
// all suite workers. A nil *progress is a valid no-op receiver, so the
// silent path stays a nil check.
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
	total int
}

func newProgress(w io.Writer, total int) *progress {
	if w == nil {
		return nil
	}
	return &progress{w: w, start: time.Now(), total: total}
}

// line emits one "[ k/n] name: phase (elapsed)" record. Elapsed time is
// wall-clock since the suite started — with workers interleaving, per-phase
// deltas would mislead more than they inform.
func (p *progress) line(idx int, name, phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "[%2d/%d] %s: %s (%.1fs)\n",
		idx+1, p.total, name, phase, time.Since(p.start).Seconds())
}

// RunSuite executes every workload (optionally filtered by name) through the
// full pipeline, fanned out across min(GOMAXPROCS, workloads) workers that
// take the suite in order. Each workload's pipeline is an independent
// deterministic simulation, so the fan-out changes wall-clock time only: a
// clean run returns results in suite order, and one worker runs the suite
// strictly in order. The first failure — or ctx's cancellation — aborts the
// suite fail-fast: in-flight workloads are cancelled on hydra's coarse
// cycle stride, queued workloads never start, and the completed prefix
// comes back labelled partial via *SuiteError.
//
// Per-workload progress lines (name, pipeline phase, elapsed time) go to
// progressW as each worker advances; nil runs silently. Writes are
// serialized, so any writer (os.Stderr included) is safe, and progress
// output does not affect results or their order.
func RunSuite(ctx context.Context, opts core.Options, filter func(*workloads.Workload) bool, progressW io.Writer) ([]*SuiteResult, error) {
	var selected []*workloads.Workload
	for _, w := range workloads.All() {
		if filter == nil || filter(w) {
			selected = append(selected, w)
		}
	}
	pw := newProgress(progressW, len(selected))
	if ctx == nil {
		ctx = context.Background()
	}
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	opts.Ctx = rctx
	results := make([]*SuiteResult, len(selected))
	errs := make([]error, len(selected))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(selected)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(selected) {
					return
				}
				w := selected[i]
				if rctx.Err() != nil {
					pw.line(i, w.Name, "cancelled")
					continue
				}
				results[i], errs[i] = runOne(w, opts, func(phase string) { pw.line(i, w.Name, phase) })
				status := "done"
				if errs[i] != nil {
					status = "failed: " + errs[i].Error()
					if !cancellation(errs[i]) {
						// Fail fast: stop burning capacity on a suite that
						// already has its answer.
						cancel(fmt.Errorf("report: %s failed: %w", w.Name, errs[i]))
					}
				}
				pw.line(i, w.Name, status)
			}
		}()
	}
	wg.Wait()
	return suiteOutcome(results, errs, rctx)
}

// runOne executes a single workload (and its transformed variant), with an
// optional phase callback for progress reporting.
func runOne(w *workloads.Workload, opts core.Options, phase func(string)) (*SuiteResult, error) {
	note := func(s string) {
		if phase != nil {
			phase(s)
		}
	}
	if w.HeapWords > 0 {
		opts.VM.HeapWords = w.HeapWords
	}
	bp := w.Build()
	info := cfg.AnalyzeProgram(bp)
	note("pipeline")
	res, err := core.Run(bp, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !res.OutputsMatch {
		return nil, fmt.Errorf("%s: speculative output differs from sequential", w.Name)
	}
	sr := &SuiteResult{Workload: w, Result: res,
		LoopCount: info.TotalLoops(), MaxDepth: info.MaxLoopDepth()}
	sr.Metrics = obs.NewRegistry()
	res.FillMetrics(sr.Metrics, fmt.Sprintf("workload=%q", w.Name))
	if w.BuildTransformed != nil {
		note("transformed")
		tr, err := core.Run(w.BuildTransformed(), opts)
		if err != nil {
			return nil, fmt.Errorf("%s (transformed): %w", w.Name, err)
		}
		if !tr.OutputsMatch {
			return nil, fmt.Errorf("%s (transformed): output mismatch", w.Name)
		}
		sr.Transformed = tr
		tr.FillMetrics(sr.Metrics, fmt.Sprintf("variant=\"transformed\",workload=%q", w.Name))
	}
	return sr, nil
}

// SuiteMetrics folds every suite result into one registry (each workload's
// metrics carry its workload label), ready for a single Prometheus dump.
func SuiteMetrics(results []*SuiteResult) *obs.Registry {
	reg := obs.NewRegistry()
	for _, sr := range results {
		sr.Result.FillMetrics(reg, fmt.Sprintf("workload=%q", sr.Workload.Name))
		if sr.Transformed != nil {
			sr.Transformed.FillMetrics(reg, fmt.Sprintf("variant=\"transformed\",workload=%q", sr.Workload.Name))
		}
	}
	return reg
}

// Table1 renders the TLS overhead table: the configured handler costs (both
// generations) plus the end-to-end effect measured on a reference kernel.
func Table1(newCycles, oldCycles int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 - Thread-level speculation overheads (cycles)\n")
	fmt.Fprintf(&b, "%-14s %5s %5s   %s\n", "TLS operation", "New", "Old", "Work performed")
	rows := []struct {
		name string
		n, o int64
		work string
	}{
		{"STL_STARTUP", tls.NewHandlers.Startup, tls.OldHandlers.Startup,
			"clear store buffers, set handlers, store $fp/$gp, wake slaves, enable TLS"},
		{"STL_SHUTDOWN", tls.NewHandlers.Shutdown, tls.OldHandlers.Shutdown,
			"wait to become head, disable TLS, kill slaves"},
		{"STL_EOI", tls.NewHandlers.EOI, tls.OldHandlers.EOI,
			"wait to become head, commit store buffer, clear tags, start new thread"},
		{"STL_RESTART", tls.NewHandlers.Restart, tls.OldHandlers.Restart,
			"clear store buffers and tags, restore $fp/$gp"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %5d %5d   %s\n", r.name, r.n, r.o, r.work)
	}
	if newCycles > 0 && oldCycles > 0 {
		fmt.Fprintf(&b, "\nEnd-to-end on the reference kernel: new handlers %d cycles, old %d cycles (%.1f%% slower)\n",
			newCycles, oldCycles, 100*(float64(oldCycles)/float64(newCycles)-1))
	}
	return b.String()
}

// Table3 renders the per-benchmark characteristics and TLS statistics.
func Table3(results []*SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 - Benchmark characteristics and STL statistics (4 CPUs)\n")
	fmt.Fprintf(&b, "%-14s %-4s %-4s %5s %5s %4s %7s %8s %7s %6s %6s %7s %7s %6s\n",
		"benchmark", "anlz", "data", "loops", "depth", "sel", "it/STL", "thrdT", "serial%", "ldbuf", "stbuf", "predspd", "actspd", "viol")
	cat := workloads.Category(-1)
	for _, sr := range results {
		if sr.Workload.Category != cat {
			cat = sr.Workload.Category
			fmt.Fprintf(&b, "-- %s --\n", cat)
		}
		r := sr.Result
		selected, itersPerSTL, thrd := selectionStats(r)
		fmt.Fprintf(&b, "%-14s %-4s %-4s %5d %5d %4d %7.0f %8.0f %6.0f%% %6.1f %6.1f %7.2f %7.2f %6d\n",
			sr.Workload.Name,
			yn(sr.Workload.Paper.Analyzable), yn(sr.Workload.Paper.DataSetDep),
			sr.LoopCount, sr.MaxDepth, selected, itersPerSTL, thrd,
			100*r.SerialFraction(), r.TLS.AvgLoadBuf, r.TLS.AvgStoreBuf,
			r.SpeedupPredicted(), r.SpeedupActual(), r.TLS.Violations)
	}
	return b.String()
}

func yn(v bool) string {
	if v {
		return "Y"
	}
	return "N"
}

// selectionStats summarizes the analyzer's selected STLs for one run.
func selectionStats(r *core.Result) (selected int, itersPerEntry, threadSize float64) {
	var totIters, totEntries, totCycles int64
	for _, d := range r.Analysis.Decisions {
		if !d.Selected || d.Stats == nil {
			continue
		}
		selected++
		totIters += d.Stats.Iterations
		totEntries += d.Stats.Entries
		totCycles += d.Stats.TotalCycles
	}
	if totEntries > 0 {
		itersPerEntry = float64(totIters) / float64(totEntries)
	}
	if totIters > 0 {
		threadSize = float64(totCycles) / float64(totIters)
	}
	return
}

// Table4 renders the manual transformation table with measured effects.
func Table4(results []*SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 - Manual transformations for speculative performance\n")
	fmt.Fprintf(&b, "%-14s %-5s %-5s %5s %8s %8s   %s\n",
		"benchmark", "diff", "auto", "lines", "base", "transf", "modification")
	for _, sr := range results {
		if sr.Transformed == nil {
			continue
		}
		t := sr.Workload.Transformed
		fmt.Fprintf(&b, "%-14s %-5s %-5s %5d %7.2fx %7.2fx   %s\n",
			sr.Workload.Name, t.Difficulty, yn(t.CompilerAuto), t.Lines,
			sr.Result.SpeedupActual(), sr.Transformed.SpeedupActual(), t.Note)
	}
	return b.String()
}

// Figure8 renders normalized execution times: profiling run, TEST-predicted
// TLS, and actual TLS, each relative to the sequential baseline (the paper's
// Figure 8 bars; lower is better).
func Figure8(results []*SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 - Normalized execution time (sequential = 1.00)\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %10s\n", "benchmark", "profiling", "predicted", "actual")
	for _, sr := range results {
		r := sr.Result
		prof := float64(r.Profile.Cycles) / float64(r.Seq.Cycles)
		pred := float64(r.PredictedCycles) / float64(r.Seq.Cycles)
		act := float64(r.TLS.Cycles) / float64(r.Seq.Cycles)
		fmt.Fprintf(&b, "%-14s %10.2f %10.2f %10.2f\n", sr.Workload.Name, prof, pred, act)
	}
	return b.String()
}

// Figure9 renders total program speedup including compilation, garbage
// collection, profiling and recompilation overheads.
func Figure9(results []*SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 - Total program speedup with overheads\n")
	fmt.Fprintf(&b, "%-14s %8s %8s | %-38s\n", "benchmark", "speedup", "app-only",
		"overhead shares of total TLS time")
	fmt.Fprintf(&b, "%-14s %8s %8s | %8s %8s %8s %8s\n", "", "", "",
		"gc", "compile", "profile", "recomp")
	for _, sr := range results {
		r := sr.Result
		total := r.TLS.Cycles + r.CompileCycles + r.RecompileCycles + r.ProfilingOverheadCycles()
		share := func(v int64) float64 { return 100 * float64(v) / float64(total) }
		fmt.Fprintf(&b, "%-14s %7.2fx %7.2fx | %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			sr.Workload.Name, r.TotalSpeedup(), r.SpeedupActual(),
			share(r.TLS.GCCycles), share(r.CompileCycles),
			share(r.ProfilingOverheadCycles()), share(r.RecompileCycles))
	}
	return b.String()
}

// Figure10 renders the speculative execution state breakdown. The
// speculative buckets accumulate per-CPU cycles; shares are normalized to
// the bucket total so the bars sum to 100% as in the paper.
func Figure10(results []*SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 - Breakdown of speculative execution by state (%%)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %8s\n",
		"benchmark", "serial", "run-used", "wait-usd", "overhead", "run-viol", "wait-viol")
	for _, sr := range results {
		st := sr.Result.TLS.Stats
		// Serial cycles are machine time on one CPU; scale to CPU-time so
		// the shares compare against the per-CPU speculative buckets.
		serial := st.Serial * 4
		total := serial + st.RunUsed + st.WaitUsed + st.Overhead + st.RunViolated + st.WaitViolated
		if total == 0 {
			total = 1
		}
		pc := func(v int64) float64 { return 100 * float64(v) / float64(total) }
		fmt.Fprintf(&b, "%-14s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			sr.Workload.Name, pc(serial), pc(st.RunUsed), pc(st.WaitUsed),
			pc(st.Overhead), pc(st.RunViolated), pc(st.WaitViolated))
	}
	return b.String()
}

// CategorySummary prints the headline result: speedup ranges per category,
// comparable to the paper's abstract ("3 to 4 on floating point
// applications, 2 to 3 on multimedia applications, and between 1.5 and 2.5
// on integer applications").
func CategorySummary(results []*SuiteResult) string {
	type agg struct {
		min, max, sum float64
		n             int
	}
	byCat := map[workloads.Category]*agg{}
	for _, sr := range results {
		sp := sr.Result.SpeedupActual()
		if sr.Transformed != nil && sr.Transformed.SpeedupActual() > sp {
			sp = sr.Transformed.SpeedupActual() // Table 3 includes manual transforms
		}
		a := byCat[sr.Workload.Category]
		if a == nil {
			a = &agg{min: sp, max: sp}
			byCat[sr.Workload.Category] = a
		}
		if sp < a.min {
			a.min = sp
		}
		if sp > a.max {
			a.max = sp
		}
		a.sum += sp
		a.n++
	}
	var cats []workloads.Category
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "Speedup by category (best of base/transformed, 4 CPUs):\n")
	for _, c := range cats {
		a := byCat[c]
		fmt.Fprintf(&b, "  %-15s %d benchmarks: %.2fx .. %.2fx (mean %.2fx)\n",
			c.String(), a.n, a.min, a.max, a.sum/float64(a.n))
	}
	return b.String()
}

// DoctorSummary renders the speculation doctor's suite digest: per workload,
// whether the cycle ledger conserved exactly, the committed-work share of
// all STL cycles, and the verdict of the hottest loop. Results from runs
// without core.Options.Diagnose are skipped (no ledger to diagnose); when
// none carried a ledger the section says so instead of vanishing silently.
func DoctorSummary(results []*SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Speculation doctor - cycle-conservation ledger digest\n")
	fmt.Fprintf(&b, "%-14s %9s %7s %6s  %s\n",
		"benchmark", "conserve", "useful", "loops", "hottest loop verdict")
	diagnosed := 0
	for _, sr := range results {
		rep, err := diagnose.Build(sr.Result)
		if err != nil {
			continue
		}
		diagnosed++
		cons := "exact"
		if !rep.Conserved {
			cons = "BROKEN"
		}
		var useful, total int64
		hot := -1
		for i := range rep.Loops {
			useful += rep.Loops[i].Buckets.RunUsed
			total += rep.Loops[i].Cycles
			if hot < 0 || rep.Loops[i].Cycles > rep.Loops[hot].Cycles {
				hot = i
			}
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(useful) / float64(total)
		}
		verdict := "(no speculative loops)"
		if hot >= 0 {
			verdict = fmt.Sprintf("loop %d: %s", rep.Loops[hot].LoopID, rep.Loops[hot].Verdict)
		}
		fmt.Fprintf(&b, "%-14s %9s %6.1f%% %6d  %s\n",
			sr.Workload.Name, cons, pct, len(rep.Loops), verdict)
	}
	if diagnosed == 0 {
		return "Speculation doctor: no diagnosed results (run the suite with Options.Diagnose / -doctor)\n"
	}
	return b.String()
}
