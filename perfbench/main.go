// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time from a seed, checks every result, and prints each metric by
// name with its unit: the end-to-end metrics untraced, or with --trace 1
// the per-layer metrics of a traced run.
//
//	perfbench --workload table3|progen-small|fleet-mix --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it describe the
// machine and the run. The exit code is 0 only when every result was
// correct. run.sh builds the command from the checkout and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"goodput_jobs_per_s", "1/s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"sim_speedup_geomean", "x"},
}

// perLayer are the metrics a traced run prints. A workload that does not
// exercise a layer reports 0 for its metrics and names them in the run's
// not_exercised list.
var perLayer = []metricDef{
	{"bench.traced_job_ms", "ms"},
	{"core.overhead_ms", "ms"},
	{"core.seq_overlap_ms", "ms"},
	{"frontend.build_ms", "ms"},
	{"jit.inline_ms", "ms"},
	{"jit.compile_plain_ms", "ms"},
	{"jit.compile_annotated_ms", "ms"},
	{"jit.compile_tls_ms", "ms"},
	{"cfg.analyze_ms", "ms"},
	{"cfg.loops", "count"},
	{"analyzer.select_ms", "ms"},
	{"analyzer.loops_selected", "count"},
	{"hydra.setup_seq_ms", "ms"},
	{"hydra.setup_profile_ms", "ms"},
	{"hydra.setup_tls_ms", "ms"},
	{"hydra.release_ms", "ms"},
	{"hydra.run_seq_ms", "ms"},
	{"hydra.run_profile_ms", "ms"},
	{"hydra.run_tls_ms", "ms"},
	{"hydra.ns_per_instr_seq", "ns"},
	{"hydra.ns_per_instr_profile", "ns"},
	{"hydra.ns_per_instr_tls", "ns"},
	{"hydra.tier2_promotions", "count"},
	{"hydra.tier2_demotions", "count"},
	{"mem.l1_miss_frac", "fraction"},
	{"mem.l2_miss_frac", "fraction"},
	{"tls.commits", "count"},
	{"tls.violations", "count"},
	{"tls.overflows", "count"},
	{"tls.used_frac", "fraction"},
	{"tls.diverged_jobs", "count"},
	{"tracer.host_overhead_frac", "fraction"},
	{"codec.encode_result_us", "us"},
	{"codec.decode_result_us", "us"},
	{"codec.program_hash_us", "us"},
	{"codec.result_bytes", "bytes"},
	{"cache.hit_frac", "fraction"},
	{"cache.coalesced_frac", "fraction"},
	{"cache.hit_latency_us", "us"},
	{"fleet.key_us", "us"},
	{"fleet.route_us", "us"},
	{"serve.submit_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.exec_diagnose_ms", "ms"},
	{"serve.shed_frac", "fraction"},
	{"serve.degraded_frac", "fraction"},
	{"slo_miss_frac", "fraction"},
	{"paper.speedup_err_pct", "%"},
	{"bench.trace_overhead_frac", "fraction"},
}

// setupsPerRun is how many times a run sets its workload up; setup_s is the
// median, which a single slow set-up does not move.
const setupsPerRun = 11

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"table3", "progen-small", "fleet-mix"}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // a seconds-long run of reduced size, for tests
	setups   int    // set-ups per run; setup_s is their median
	root     string // repository root (for the golden rows)
	out      string // directory for spans, scratch data and exact-metric records
}

// window is how long the run measures.
func (c *config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c *config) tmpDir() string { return filepath.Join(c.out, "tmp") }

func (c *config) spansPath() string {
	return filepath.Join(c.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	errs              []string // the first few failures, for the report
	// diverged names the jobs whose speculative run diverged from the
	// sequential one, as the pipeline itself reported (see checkOracle).
	diverged []string
	setups   []float64
	metrics  map[string]float64
	detail   map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
}

// fail counts one failed job.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, err.Error())
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "reduced run that finishes in seconds")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for spans and run records")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = setupsPerRun
	if cfg.smoke {
		cfg.setups = 1
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}

	o, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep := finish(cfg, o)
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"machine": machine(cfg)})
	enc.Encode(map[string]any{"run": o.detail})
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	enc.Encode(rep)
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run executes one workload.
func run(cfg *config) (*outcome, error) {
	golden, err := loadGolden(cfg.root)
	if err != nil {
		return nil, fmt.Errorf("golden rows: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "spans"), 0o755); err != nil {
		return nil, err
	}
	o := newOutcome()
	switch cfg.workload {
	case "table3":
		err = runClosed(cfg, table3Workload(cfg, golden), o)
	case "progen-small":
		err = runClosed(cfg, progenWorkload(cfg), o)
	case "fleet-mix":
		err = runFleet(cfg, golden, o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	o.metrics["setup_s"] = median(o.setups)
	o.detail["setups_s"] = o.setups
	o.detail["diverged_jobs"] = o.diverged
	// The process's own high-water mark, set-up included.
	if o.detail["process_peak_rss_mb"], err = statusMB("VmHWM"); err != nil {
		return nil, err
	}
	return o, nil
}

// finish checks the exact metrics against earlier runs and assembles the
// report: the end-to-end metrics, or the per-layer ones for a traced run.
func finish(cfg *config, o *outcome) report {
	key := fmt.Sprintf("%s-seed%d-trace%t-smoke%t", cfg.workload, cfg.seed, cfg.trace, cfg.smoke)
	drift, err := checkDrift(cfg.out, key, o.metrics)
	if err != nil {
		o.fail(fmt.Errorf("exact-metric record: %w", err))
	}
	for _, d := range drift {
		o.fail(fmt.Errorf("simulated metric drifted from an earlier run with this seed: %s", d))
	}
	o.detail["drift"] = drift

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := report{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if cfg.trace {
		o.detail["not_exercised"] = missing
	} else if len(missing) > 0 {
		o.fail(fmt.Errorf("end-to-end metrics not measured: %s", strings.Join(missing, ", ")))
		rep.Failed = o.failed
	}
	o.detail["failed_frac"] = frac(float64(o.failed), float64(o.attempted))
	rep.Failed = o.failed
	rep.Correct = o.failed == 0 && o.attempted > 0
	return rep
}

// machine describes the host and the build.
func machine(cfg *config) map[string]any {
	commit, dirty := os.Getenv("PERFBENCH_COMMIT"), os.Getenv("PERFBENCH_DIRTY")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     commit,
		"dirty":      dirty == "1",
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
