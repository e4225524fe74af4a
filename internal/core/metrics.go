package core

import (
	"fmt"
	"sort"

	"jrpm/internal/obs"
	"jrpm/internal/tls"
)

// GuardLoopEntry pairs a loop id with its guard statistics for ordered
// iteration.
type GuardLoopEntry struct {
	LoopID int64
	Stats  tls.GuardLoopStats
}

// SortedGuardStats returns the phase's per-loop guard statistics in
// ascending loop-id order. GuardStats itself is a map, so ranging over it
// directly gives a different order every run; report and trace output must
// go through this accessor to stay deterministic.
func (p *Phase) SortedGuardStats() []GuardLoopEntry {
	if len(p.GuardStats) == 0 {
		return nil
	}
	out := make([]GuardLoopEntry, 0, len(p.GuardStats))
	for id, st := range p.GuardStats {
		out = append(out, GuardLoopEntry{LoopID: id, Stats: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LoopID < out[j].LoopID })
	return out
}

// FillMetrics snapshots the phase's counters into reg under the given label
// set (comma form, e.g. `phase="tls",workload="BitOps"`).
func (p *Phase) FillMetrics(reg *obs.Registry, labels string) {
	add := func(name string, v int64) {
		reg.Counter(obs.Name(name, labels)).Add(v)
	}
	add("jrpm_cycles_total", p.Cycles)
	add("jrpm_instructions_total", p.Instructions)
	add("jrpm_gc_cycles_total", p.GCCycles)
	add("jrpm_gc_runs_total", p.GCRuns)
	add("jrpm_tls_commits_total", p.Commits)
	add("jrpm_tls_violations_total", p.Violations)
	add("jrpm_tls_overflows_total", p.Overflows)
	add("jrpm_cache_l1_hits_total", p.L1Hits)
	add("jrpm_cache_l1_misses_total", p.L1Misses)
	add("jrpm_cache_l2_hits_total", p.L2Hits)
	add("jrpm_cache_l2_misses_total", p.L2Misses)

	// The paper's Figure 6/7 state breakdown, one labeled counter per
	// bucket.
	state := func(bucket string, v int64) {
		reg.Counter(obs.Name("jrpm_state_cycles_total",
			obs.JoinLabels(fmt.Sprintf("state=%q", bucket), labels))).Add(v)
	}
	state("serial", p.Stats.Serial)
	state("run_used", p.Stats.RunUsed)
	state("wait_used", p.Stats.WaitUsed)
	state("overhead", p.Stats.Overhead)
	state("run_violated", p.Stats.RunViolated)
	state("wait_violated", p.Stats.WaitViolated)

	p.Tier.FillMetrics(reg, labels)

	reg.Gauge(obs.Name("jrpm_tls_store_buffer_lines_avg", labels)).Set(p.AvgStoreBuf)
	reg.Gauge(obs.Name("jrpm_tls_load_buffer_lines_avg", labels)).Set(p.AvgLoadBuf)

	for _, e := range p.SortedGuardStats() {
		gl := obs.JoinLabels(fmt.Sprintf("loop=\"%d\"", e.LoopID), labels)
		reg.Counter(obs.Name("jrpm_guard_decerts_total", gl)).Add(e.Stats.Decerts)
		reg.Counter(obs.Name("jrpm_guard_probes_total", gl)).Add(e.Stats.Probes)
		reg.Counter(obs.Name("jrpm_guard_recerts_total", gl)).Add(e.Stats.Recerts)
	}
}

// FillMetrics snapshots the whole pipeline result into reg: one metric set
// per phase (labelled phase="seq"/"profile"/"tls") plus pipeline-level
// compile costs and speedup gauges. labels is appended to every metric.
func (r *Result) FillMetrics(reg *obs.Registry, labels string) {
	r.Seq.FillMetrics(reg, obs.JoinLabels(`phase="seq"`, labels))
	r.Profile.FillMetrics(reg, obs.JoinLabels(`phase="profile"`, labels))
	r.TLS.FillMetrics(reg, obs.JoinLabels(`phase="tls"`, labels))

	reg.Counter(obs.Name("jrpm_compile_cycles_total", labels)).Add(r.CompileCycles)
	reg.Counter(obs.Name("jrpm_recompile_cycles_total", labels)).Add(r.RecompileCycles)
	reg.Gauge(obs.Name("jrpm_speedup_actual", labels)).Set(r.SpeedupActual())
	reg.Gauge(obs.Name("jrpm_speedup_predicted", labels)).Set(r.SpeedupPredicted())
	reg.Gauge(obs.Name("jrpm_profile_slowdown", labels)).Set(r.ProfileSlowdown())
	reg.Gauge(obs.Name("jrpm_guard_decertified_loops", labels)).
		Set(float64(len(r.TLS.DecertifiedLoops)))
}

// Metrics snapshots the result into a fresh registry with no extra labels.
func (r *Result) Metrics() *obs.Registry {
	reg := obs.NewRegistry()
	r.FillMetrics(reg, "")
	return reg
}
