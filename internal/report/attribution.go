package report

import (
	"fmt"
	"strings"

	"jrpm/internal/analyzer"
	"jrpm/internal/bytecode"
	"jrpm/internal/core"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
	"jrpm/internal/workloads"
)

// Attribution holds the per-benchmark speedup contributed by each
// optimization and VM modification — the right half of the paper's Table 3
// (columns m–u). Each entry is the percentage improvement of the full
// system over the system with that one feature disabled:
// (T_without − T_with) / T_with.
type Attribution struct {
	Workload string
	// Percentages; NaN-free: 0 when the feature is unused or inapplicable.
	Overheads  float64 // new vs old handlers (Table 1 rework)
	Hoisting   float64
	Multilevel float64
	Reduction  float64
	Sync       float64
	Resetable  float64
	VMAlloc    float64 // per-CPU speculative free lists (§5.2)
	VMLock     float64 // speculation-aware object locks (§5.3)
	Manual     float64 // Table 4 transformation
}

// Attribute measures the attribution table for one workload. Only features
// the baseline run actually used are measured (the paper's blank cells);
// each measurement is a full pipeline pair, so this is the most expensive
// report.
func Attribute(w *workloads.Workload, opts core.Options) (*Attribution, error) {
	if w.HeapWords > 0 {
		opts.VM.HeapWords = w.HeapWords
	}
	base, err := core.Run(w.Build(), opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	att := &Attribution{Workload: w.Name}

	used := struct {
		hoist, multi, red, sync, reset, alloc, lock bool
	}{}
	for _, d := range base.Analysis.Decisions {
		if !d.Selected {
			continue
		}
		used.hoist = used.hoist || d.Hoisted
		used.multi = used.multi || d.Multilevel
		used.red = used.red || d.Reductions > 0
		used.sync = used.sync || d.SyncLocks > 0
		used.reset = used.reset || d.Resetable > 0
	}
	used.alloc = base.TLS.GCRuns > 0 || hasAllocInSelected(base)
	used.lock = hasMonitors(w)

	gain := func(mod func(*core.Options)) (float64, error) {
		o := opts
		mod(&o)
		res, err := core.Run(w.Build(), o)
		if err != nil {
			return 0, err
		}
		if !res.OutputsMatch {
			return 0, fmt.Errorf("%s: output mismatch in attribution run", w.Name)
		}
		return 100 * (float64(res.TLS.Cycles) - float64(base.TLS.Cycles)) /
			float64(base.TLS.Cycles), nil
	}
	analyzerMod := func(mod func(*analyzer.Config)) func(*core.Options) {
		return func(o *core.Options) {
			a := o.AnalyzerConfig()
			mod(&a)
			o.Analyzer = &a
		}
	}

	// Handler rework applies to everything with a selected STL.
	if att.Overheads, err = gain(func(o *core.Options) { o.Handlers = tls.OldHandlers }); err != nil {
		return nil, err
	}
	if used.hoist {
		if att.Hoisting, err = gain(analyzerMod(func(a *analyzer.Config) { a.NoHoisting = true })); err != nil {
			return nil, err
		}
	}
	if used.multi {
		if att.Multilevel, err = gain(analyzerMod(func(a *analyzer.Config) { a.NoMultilevel = true })); err != nil {
			return nil, err
		}
	}
	if used.red {
		if att.Reduction, err = gain(analyzerMod(func(a *analyzer.Config) { a.NoReductions = true })); err != nil {
			return nil, err
		}
	}
	if used.sync {
		if att.Sync, err = gain(analyzerMod(func(a *analyzer.Config) { a.NoSyncLocks = true })); err != nil {
			return nil, err
		}
	}
	if used.reset {
		if att.Resetable, err = gain(analyzerMod(func(a *analyzer.Config) { a.NoResetable = true })); err != nil {
			return nil, err
		}
	}
	if used.alloc {
		if att.VMAlloc, err = gain(func(o *core.Options) { o.VM.ParallelAlloc = false }); err != nil {
			return nil, err
		}
	}
	if used.lock {
		if att.VMLock, err = gain(func(o *core.Options) { o.VM.ElideLocks = false }); err != nil {
			return nil, err
		}
	}
	if w.BuildTransformed != nil {
		tr, err := core.Run(w.BuildTransformed(), opts)
		if err != nil {
			return nil, err
		}
		// Manual gain compares end-to-end speedups (the programs differ, so
		// cycle counts are not directly comparable).
		att.Manual = 100 * (tr.SpeedupActual() - base.SpeedupActual()) / base.SpeedupActual()
	}
	return att, nil
}

// hasAllocInSelected reports whether any selected loop allocates.
func hasAllocInSelected(res *core.Result) bool {
	// Allocation inside selected STLs shows up as speculative allocator
	// traffic; approximating via the profile is enough for "applicable".
	for _, d := range res.Analysis.Decisions {
		if d.Selected && d.Stats != nil && d.Stats.Deps != nil {
			// allocator dependencies were tagged during profiling
			for k := range d.Stats.Deps {
				if k == tracer.AllocDepKey {
					return true
				}
			}
		}
	}
	return false
}

// hasMonitors reports whether the workload's bytecode uses monitors.
func hasMonitors(w *workloads.Workload) bool {
	bp := w.Build()
	for _, m := range bp.Methods {
		for _, in := range m.Code {
			if in.Op == bytecode.MONITORENTER {
				return true
			}
		}
	}
	return false
}

// Table3Opt renders the optimization-attribution columns for a set of
// workloads (the paper's Table 3 columns m–u).
func Table3Opt(opts core.Options, names []string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 (right half) - Speedups from TLS optimizations (%% improvement of full system)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"benchmark", "ovhds", "hoist", "multi", "reduct", "sync", "reset", "vmalloc", "vmlock", "manual")
	for _, name := range names {
		w := workloads.ByName(name)
		if w == nil {
			return "", fmt.Errorf("unknown workload %q", name)
		}
		att, err := Attribute(w, opts)
		if err != nil {
			return "", err
		}
		cell := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", v)
		}
		fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
			att.Workload, cell(att.Overheads), cell(att.Hoisting), cell(att.Multilevel),
			cell(att.Reduction), cell(att.Sync), cell(att.Resetable),
			cell(att.VMAlloc), cell(att.VMLock), cell(att.Manual))
	}
	return b.String(), nil
}
