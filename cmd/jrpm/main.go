// Command jrpm drives the reproduced Java Runtime Parallelizing Machine: the
// Figure 1 pipeline (annotated compilation, TEST profiling, decomposition
// selection, TLS recompilation and speculative execution) and the tools
// around it, one subcommand per job.
//
// Usage:
//
//	jrpm run    [flags] [TARGET ...]   run targets; no target runs the whole suite
//	jrpm bench  [flags]                the paper's tables, figures and ablations
//	jrpm doctor [flags] [TARGET]       speculation doctor report; no target: suite digest
//	jrpm trace  [flags] [TARGET]       Perfetto trace; no target: one file per workload
//	jrpm dis    [flags] TARGET         bytecode and native code of one program
//	jrpm fuzz   [flags]                differential seq-vs-TLS fuzzing with shrinking
//	jrpm litmus [flags]                model-check the TLS coherence protocol
//	jrpm serve  [flags]                the simulator as an HTTP job service
//	jrpm fleet  -replicas URL,... [flags]  sharded, caching router over serve replicas
//	jrpm -version
//
// A TARGET is a Table 3 workload name or a path to a jasm program (see
// internal/bytecode.Parse); doctor and trace also take it as -w NAME. run,
// bench, doctor and trace share the pipeline flags -cpus, -guard, -faults,
// -cyclebudget, -tier, -timeout, -metrics and -http; serve and fleet share
// -cyclebudget, -tier and -metrics. "jrpm SUBCOMMAND -h" lists the rest.
//
// Exit status: 0 on success, 1 on an error, 2 on a usage error, 3 when
// -timeout or SIGINT/SIGTERM cut a run short.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"jrpm/internal/buildinfo"
	"jrpm/internal/fleet"
	"jrpm/internal/hydra"
	"jrpm/internal/obs"
	"jrpm/internal/report"
	"jrpm/internal/serve"
	"jrpm/internal/workloads"
)

// The streams subcommands write to; tests swap them for buffers.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// subcommands in the order the usage text lists them.
var subcommands = []struct {
	name, args, help string
	run              func(ctx context.Context, args []string) error
}{
	{"run", "[TARGET ...]", "run targets through the pipeline (no target: the suite)", runCmd},
	{"bench", "", "regenerate the paper's tables, figures and ablations", benchCmd},
	{"doctor", "[TARGET]", "speculation doctor report (no target: suite digest)", doctorCmd},
	{"trace", "[TARGET]", "flight-recorder trace (no target: one file per workload)", traceCmd},
	{"dis", "TARGET", "bytecode and native code in one JIT mode", disCmd},
	{"fuzz", "", "differential seq-vs-TLS fuzzing", fuzzCmd},
	{"litmus", "", "model-check the TLS coherence protocol", litmusCmd},
	{"serve", "", "the simulator as an HTTP job service", serveCmd},
	{"fleet", "", "sharded, caching router over serve replicas", fleetCmd},
}

func main() {
	// SIGINT/SIGTERM end ctx: pipeline runs poll it on hydra's cancellation
	// stride, and serve and fleet drain on it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := jrpm(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// jrpm runs one invocation and returns its exit status.
func jrpm(ctx context.Context, args []string) int {
	if len(args) == 1 && (args[0] == "-version" || args[0] == "--version") {
		fmt.Fprintln(stdout, buildinfo.Banner("jrpm"))
		return 0
	}
	for _, c := range subcommands {
		if len(args) > 0 && args[0] == c.name {
			return exitCode(c.name, c.run(ctx, args[1:]))
		}
	}
	fmt.Fprintln(stderr, "usage: jrpm SUBCOMMAND [flags] [args]")
	for _, c := range subcommands {
		fmt.Fprintf(stderr, "  %-7s %-13s %s\n", c.name, c.args, c.help)
	}
	fmt.Fprintln(stderr, "A TARGET is a workload name or a jasm program path. jrpm -version prints\n"+
		"the version; jrpm SUBCOMMAND -h lists a subcommand's flags.")
	return 2
}

// usageError marks a command-line mistake (exit status 2).
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// exitStatus is a status a subcommand chose and already reported.
type exitStatus int

func (s exitStatus) Error() string { return fmt.Sprintf("exit status %d", int(s)) }

// exitCode reports err on stderr and maps it to the exit status.
func exitCode(sub string, err error) int {
	var st exitStatus
	if err == nil {
		return 0
	} else if errors.As(err, &st) {
		return int(st)
	}
	fmt.Fprintf(stderr, "jrpm %s: %v\n", sub, err)
	var se *report.SuiteError
	if errors.As(err, &se) {
		fmt.Fprintf(stderr, "jrpm %s: partial suite: %d/%d workloads completed, %d cancelled\n",
			sub, len(se.Partial), se.Total, se.Cancelled)
	}
	var ue usageError
	switch {
	case errors.As(err, &ue):
		return 2
	case errors.Is(err, hydra.ErrCancelled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return 3
	}
	return 1
}

// flags holds every flag that more than one subcommand accepts. Each is
// defined once, by one of the define methods below; a subcommand's flag set
// takes the groups it accepts.
type flags struct {
	cpus    int
	guard   bool
	faults  string
	budget  int64
	tier    string
	timeout time.Duration
	metrics string
	http    string

	w     string // a target named by flag instead of by argument
	list  bool
	out   string // -o; the subcommand presets its default
	addr  string // -addr; the subcommand presets its default
	grace time.Duration
}

// defineEngine defines the flags serve and fleet share with the pipeline
// subcommands.
func (f *flags) defineEngine(fs *flag.FlagSet) {
	fs.Int64Var(&f.budget, "cyclebudget", 0, "simulated-cycle budget for each run (0 = default 2e9)")
	fs.StringVar(&f.tier, "tier", "on", "tier-2 block engine, on or off (results are bit-identical; off forces pure interpretation)")
	fs.StringVar(&f.metrics, "metrics", "", "write Prometheus text metrics to FILE (\"-\" = stdout; stderr for serve and fleet, which flush on shutdown)")
}

func (f *flags) defineCPUs(fs *flag.FlagSet) {
	fs.IntVar(&f.cpus, "cpus", 4, "number of simulated CPUs")
}

// definePipeline defines the flags of every subcommand that runs the
// pipeline: run, bench, doctor and trace.
func (f *flags) definePipeline(fs *flag.FlagSet) {
	f.defineEngine(fs)
	f.defineCPUs(fs)
	fs.BoolVar(&f.guard, "guard", false, "enable the STL violation-storm guard (sequential fallback for thrashing loops)")
	fs.StringVar(&f.faults, "faults", "", "fault-injection plan for speculative runs, e.g. seed=42,raw=0.01,overflow=0.005,bus=0.02,busdelay=12,heap=0.001,jit=0")
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock deadline for the whole invocation (0 = none); exceeding it exits with status 3")
	fs.StringVar(&f.http, "http", "", "serve net/http/pprof and expvar on ADDR (e.g. :6060) during the run")
}

// defineTarget defines doctor's and trace's -w, -list and -o; f.out holds
// the -o default.
func (f *flags) defineTarget(fs *flag.FlagSet) {
	fs.StringVar(&f.w, "w", "", "workload name from the benchmark suite (see -list)")
	fs.BoolVar(&f.list, "list", false, "list workload names and exit")
	fs.StringVar(&f.out, "o", f.out, "output path (\"-\" = stdout)")
}

// defineListen defines serve's and fleet's -addr and -grace; f.addr holds
// the -addr default.
func (f *flags) defineListen(fs *flag.FlagSet) {
	fs.StringVar(&f.addr, "addr", f.addr, "HTTP listen address")
	fs.DurationVar(&f.grace, "grace", 10*time.Second, "shutdown grace period before in-flight work is cancelled")
}

// newFlagSet returns the flag set of one subcommand, defining on f the
// shared flags the define funcs name.
func (f *flags) newFlagSet(sub string, define ...func(*flags, *flag.FlagSet)) *flag.FlagSet {
	fs := flag.NewFlagSet("jrpm "+sub, flag.ExitOnError)
	for _, d := range define {
		d(f, fs)
	}
	return fs
}

// liveMetrics backs the "jrpm" expvar: nil until the invocation publishes.
var liveMetrics atomic.Pointer[obs.Registry]

// start begins a pipeline subcommand: with -list it prints the workload
// names and reports done; with -http it serves net/http/pprof and expvar
// for the rest of the invocation.
func (f *flags) start() (done bool) {
	if f.list {
		for _, w := range workloads.All() {
			fmt.Fprintln(stdout, w.Name)
		}
		return true
	}
	if f.http == "" {
		return false
	}
	expvar.Publish("jrpm", expvar.Func(func() any {
		if reg := liveMetrics.Load(); reg != nil {
			return reg.Snapshot()
		}
		return nil
	}))
	go func() {
		if err := http.ListenAndServe(f.http, nil); err != nil {
			fmt.Fprintln(stderr, "jrpm: http:", err)
		}
	}()
	fmt.Fprintf(stderr, "serving pprof/expvar on %s\n", f.http)
	return false
}

// publish makes reg the "jrpm" expvar and writes it to -metrics, if set
// ("-" = dash).
func (f *flags) publish(reg *obs.Registry, dash io.Writer) error {
	liveMetrics.Store(reg)
	if f.metrics == "" {
		return nil
	}
	return create(f.metrics, dash, reg.WritePrometheus)
}

// create runs write against a new file at path, or against dash when path
// is "-".
func create(path string, dash io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(dash)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// host serves h on -addr until ctx ends (banner completes the listening
// line), then shuts down in order: drain
// stops admissions and settles in-flight work within -grace, returning how
// many jobs it had to cancel; the HTTP server closes; reg flushes to
// -metrics ("-" = stderr).
func (f *flags) host(ctx context.Context, sub string, h http.Handler, banner string,
	drain func(context.Context) int, reg *obs.Registry) error {
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "jrpm %s: listening on %s%s\n", sub, ln.Addr(), banner)
	select {
	case <-ctx.Done():
		fmt.Fprintf(stderr, "jrpm %s: signalled: draining (grace %v)\n", sub, f.grace)
	case err := <-errc:
		return fmt.Errorf("http: %w", err)
	}
	dctx, cancel := context.WithTimeout(context.Background(), f.grace)
	defer cancel()
	forced := drain(dctx)
	switch err := hs.Shutdown(dctx); {
	case forced > 0:
		fmt.Fprintf(stderr, "jrpm %s: grace expired; cancelled %d in-flight job(s)\n", sub, forced)
	case err != nil:
		fmt.Fprintf(stderr, "jrpm %s: grace expired: %v\n", sub, err)
	default:
		fmt.Fprintf(stderr, "jrpm %s: drained cleanly\n", sub)
	}
	return f.publish(reg, stderr)
}

// parseServe parses a serve invocation.
func parseServe(args []string) (*flags, serve.Config, error) {
	f := &flags{addr: ":8080"}
	var c serve.Config
	fs := f.newFlagSet("serve", (*flags).defineListen, (*flags).defineEngine)
	fs.IntVar(&c.Workers, "workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
	fs.IntVar(&c.QueueDepth, "queue", 64, "admission queue depth; beyond it submissions are shed with 503")
	fs.DurationVar(&c.DefaultDeadline, "deadline", 30*time.Second, "default per-job wall-clock deadline")
	fs.DurationVar(&c.MaxDeadline, "maxdeadline", 2*time.Minute, "cap on client-requested deadlines")
	fs.StringVar(&c.DataDir, "data", "", "crash-durability directory: journal accepted jobs, checkpoint running ones, and recover both on restart (empty = in-memory only)")
	fs.DurationVar(&c.CheckpointEvery, "checkpoint-every", 0, "period between safepoint checkpoints on running jobs (0 = 2s when -data is set)")
	fs.Parse(args)
	c.MaxCycles = f.budget
	off, err := f.tierOff()
	c.Tier2Off = off
	return f, c, err
}

// serveCmd runs the simulator as a long-lived HTTP job service with
// admission control, per-job deadlines, graceful degradation and graceful
// shutdown (see internal/serve for the endpoints). With -data it is
// crash-durable: accepted jobs land in an fsync'd journal, running jobs
// write safepoint checkpoints, and a restart resumes interrupted jobs
// mid-simulation with bit-identical results.
func serveCmd(ctx context.Context, args []string) error {
	f, cfg, err := parseServe(args)
	if err != nil {
		return err
	}
	srv, rec, err := serve.Open(cfg)
	if err != nil {
		return err
	}
	if cfg.DataDir != "" {
		fmt.Fprintf(stderr, "jrpm serve: durable in %s: recovered %d resumed, %d restarted, %d completed\n",
			cfg.DataDir, rec.Resumed, rec.Restarted, rec.Completed)
	}
	srv.Start()
	c := srv.Config()
	banner := fmt.Sprintf(" (%d workers, queue %d, deadline %v)", c.Workers, c.QueueDepth, c.DefaultDeadline)
	return f.host(ctx, "serve", srv.Handler(), banner, srv.Shutdown, srv.Metrics())
}

// parseFleet parses a fleet invocation into the router config and the
// replica URLs; f.timeout is the per-request routing timeout.
func parseFleet(args []string) (*flags, fleet.Config, []string, error) {
	f := &flags{addr: ":9090"}
	var c fleet.Config
	fs := f.newFlagSet("fleet", (*flags).defineListen, (*flags).defineEngine)
	replicas := fs.String("replicas", "", "comma-separated serve base URLs (required)")
	fs.Int64Var(&c.CacheBytes, "cache-bytes", 0, "result cache budget in bytes (0 = default 64 MiB, <0 disables)")
	fs.IntVar(&c.VNodes, "vnodes", 0, "virtual nodes per replica on the hash ring (0 = default 64)")
	fs.DurationVar(&c.HedgeAfter, "hedge-after", 2*time.Second, "hedge to the next shard when an attempt exceeds this (0 disables)")
	fs.DurationVar(&f.timeout, "timeout", 60*time.Second, "per-request routing timeout")
	fs.Parse(args)
	// -cyclebudget and -tier must mirror the replicas: the router keys its
	// cache by the options a replica would run with.
	c.Serve.MaxCycles = f.budget
	off, err := f.tierOff()
	c.Serve.Tier2Off = off
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if err == nil && len(urls) == 0 {
		err = usagef("-replicas is required (comma-separated serve URLs)")
	}
	return f, c, urls, err
}

// fleetCmd fronts serve replicas with a sharded, cache-backed router (see
// internal/fleet): consistent hashing, a content-addressed LRU of results,
// singleflight coalescing, failover along the ring and hedged retries.
func fleetCmd(ctx context.Context, args []string) error {
	f, cfg, urls, err := parseFleet(args)
	if err != nil {
		return err
	}
	backends := make([]fleet.Backend, len(urls))
	for i, u := range urls {
		backends[i] = &fleet.HTTPBackend{ReplicaName: u, BaseURL: u}
	}
	rt := fleet.New(cfg, backends)
	h := http.TimeoutHandler(rt.Handler(), f.timeout, "fleet: routing timeout\n")
	banner := fmt.Sprintf(", %d replica(s), hedge after %v", len(urls), cfg.HedgeAfter)
	// The router holds no jobs of its own: draining is the HTTP server's.
	return f.host(ctx, "fleet", h, banner, func(context.Context) int { return 0 }, rt.Metrics())
}
