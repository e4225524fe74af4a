package main

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/faultinject"
	"jrpm/internal/fleet"
	"jrpm/internal/serve"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// The expected options below mirror, step by step, how each retired binary
// (cmd/jrpm, jrpm-run, jrpm-bench, jrpm-doctor, jrpm-trace, jrpm-serve and
// jrpm-fleet) built its options from its flags.

func plan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

func guard() *tls.GuardConfig {
	g := tls.DefaultGuardConfig()
	return &g
}

// oldJrpm mirrors cmd/jrpm: -cpus, -old, -noalloc and -nolocks only.
func oldJrpm(cpus int, old, noalloc, nolocks bool) core.Options {
	o := core.DefaultOptions()
	o.NCPU = cpus
	if old {
		o.Handlers = tls.OldHandlers
	}
	o.VM.ParallelAlloc = !noalloc
	o.VM.ElideLocks = !nolocks
	return o
}

// oldRun mirrors jrpm-run (and jrpm-bench's baseOpts, which is the same
// sequence at 4 CPUs with -doctor in place of -explain).
func oldRun(cpus int, tierOff bool, budget int64, faults *faultinject.Plan, g *tls.GuardConfig, diagnose bool) core.Options {
	o := core.DefaultOptions()
	o.NCPU = cpus
	o.Tier2Off = tierOff
	if budget > 0 {
		o.MaxCycles = budget
	}
	o.Faults = faults
	o.Guard = g
	o.Diagnose = diagnose
	return o
}

// oldDoctor mirrors jrpm-doctor and, with diagnose off, jrpm-trace: -cpus,
// -guard, -faults (doctor only) and the -w workload's heap size.
func oldDoctor(cpus int, g *tls.GuardConfig, faults *faultinject.Plan, diagnose bool, workload string) core.Options {
	o := core.DefaultOptions()
	o.NCPU = cpus
	o.Diagnose = diagnose
	o.Guard = g
	o.Faults = faults
	if w := workloads.ByName(workload); w != nil && w.HeapWords > 0 {
		o.VM.HeapWords = w.HeapWords
	}
	return o
}

const prog = "../../examples/asm/sumsquares.jasm"

// bindNew parses a new spelling and returns the options its first run
// starts from, including the first named target's heap size.
func bindNew(t *testing.T, args []string) core.Options {
	t.Helper()
	ctx := context.Background()
	var p *pipeline
	var err error
	switch args[0] {
	case "run":
		p, _, err = parseRun(ctx, args[1:])
	case "bench":
		p, _, err = parseBench(ctx, args[1:])
	case "doctor":
		p, _, err = parseDoctor(ctx, args[1:])
	case "trace":
		p, _, err = parseTrace(ctx, args[1:])
	default:
		t.Fatalf("not a pipeline subcommand: %q", args[0])
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.cancel)
	opts := p.opts
	if len(p.targets) > 0 {
		if _, err := p.targets[0].program(&opts); err != nil {
			t.Fatal(err)
		}
	}
	return opts
}

// TestOldInvocationsBindIdenticalOptions covers every documented
// invocation that configures a simulation (README, EXPERIMENTS.md, CI and
// the verify skill): the new spelling must yield the options encoding the
// retired binary built, and attach the recorder, the doctor's ledger and a
// deadline exactly when it did.
func TestOldInvocationsBindIdenticalOptions(t *testing.T) {
	// -tier defaults to on; JRPM_TIER=off would flip core.DefaultOptions
	// under the binaries that had no -tier flag, not under the documented
	// invocations.
	t.Setenv("JRPM_TIER", "")
	heavy := "seed=42,raw=0.01,overflow=0.005,bus=0.02,busdelay=12,heap=0.001,jit=0"
	cases := []struct {
		old, new string
		want     core.Options
		deadline bool
		recorder bool
	}{
		// README
		{old: "jrpm FourierTest shallow mp3", new: "run FourierTest shallow mp3", want: oldJrpm(4, false, false, false)},
		{old: "jrpm", new: "run", want: oldJrpm(4, false, false, false)},
		{old: "jrpm -loops mp3", new: "run -loops mp3", want: oldJrpm(4, false, false, false)},
		{old: "jrpm -old -noalloc -nolocks -cpus 8 db", new: "run -old -noalloc -nolocks -cpus 8 db", want: oldJrpm(8, true, true, true)},
		{old: "jrpm-bench", new: "bench", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -ablate inductor", new: "bench -ablate inductor", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -attribution", new: "bench -attribution", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-run " + prog, new: "run " + prog, want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-trace -w BitOps -o trace.json", new: "trace -w BitOps -o trace.json", want: oldDoctor(4, nil, nil, false, "BitOps"), recorder: true},
		{old: "jrpm-bench -timeout 30s", new: "bench -timeout 30s", want: oldRun(4, false, 0, nil, nil, false), deadline: true},
		{old: "jrpm-doctor -w db", new: "doctor -w db", want: oldDoctor(4, nil, nil, true, "db")},
		{old: "jrpm-run -tier=off " + prog, new: "run -tier=off " + prog, want: oldRun(4, true, 0, nil, nil, false)},
		{old: "jrpm-bench -tier=off", new: "bench -tier=off", want: oldRun(4, true, 0, nil, nil, false)},
		{old: "jrpm-run -explain " + prog, new: "doctor " + prog, want: oldRun(4, false, 0, nil, nil, true)},
		{old: "jrpm-bench -doctor", new: "doctor", want: oldRun(4, false, 0, nil, nil, true)},
		{old: "jrpm-run -metrics - " + prog, new: "run -metrics - " + prog, want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-run -faults " + heavy + " -cyclebudget 2000000000 -guard " + prog,
			new:  "run -faults " + heavy + " -cyclebudget 2000000000 -guard " + prog,
			want: oldRun(4, false, 2000000000, plan(t, heavy), guard(), false)},
		{old: "jrpm-bench -faults " + heavy + " -cyclebudget 2000000000 -guard",
			new:  "bench -faults " + heavy + " -cyclebudget 2000000000 -guard",
			want: oldRun(4, false, 2000000000, plan(t, heavy), guard(), false)},
		// EXPERIMENTS.md
		{old: "jrpm-bench -table 3", new: "bench -table 3", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -table 4", new: "bench -table 4", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -fig 8", new: "bench -fig 8", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -fig 9", new: "bench -fig 9", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -fig 10", new: "bench -fig 10", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -ablate buffers", new: "bench -ablate buffers", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -faults seed=42,raw=0.005,overflow=0.02,bus=0.05,busdelay=8,heap=0.001 -guard",
			new:  "bench -faults seed=42,raw=0.005,overflow=0.02,bus=0.05,busdelay=8,heap=0.001 -guard",
			want: oldRun(4, false, 0, plan(t, "seed=42,raw=0.005,overflow=0.02,bus=0.05,busdelay=8,heap=0.001"), guard(), false)},
		{old: "jrpm-run -faults seed=7,raw=0.02 -cyclebudget 100000000 -guard " + prog,
			new:  "run -faults seed=7,raw=0.02 -cyclebudget 100000000 -guard " + prog,
			want: oldRun(4, false, 100000000, plan(t, "seed=7,raw=0.02"), guard(), false)},
		{old: "jrpm-bench -faults seed=42", new: "bench -faults seed=42", want: oldRun(4, false, 0, plan(t, "seed=42"), nil, false)},
		{old: "jrpm-trace -w BitOps -o trace.json -metrics -", new: "trace -w BitOps -o trace.json -metrics -", want: oldDoctor(4, nil, nil, false, "BitOps"), recorder: true},
		{old: "jrpm-bench -trace traces/", new: "trace -o traces/", want: oldRun(4, false, 0, nil, nil, false), recorder: true},
		{old: "jrpm-bench -table 3 -progress -metrics metrics.txt -http :6060", new: "bench -table 3 -progress -metrics metrics.txt -http :6060", want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-bench -timeout 2s", new: "bench -timeout 2s", want: oldRun(4, false, 0, nil, nil, false), deadline: true},
		{old: "jrpm-run -timeout 200ms " + prog, new: "run -timeout 200ms " + prog, want: oldRun(4, false, 0, nil, nil, false), deadline: true},
		{old: "jrpm-doctor -w db -json", new: "doctor -w db -json", want: oldDoctor(4, nil, nil, true, "db")},
		{old: "jrpm-run -trace t.json " + prog, new: "trace -o t.json " + prog, want: oldRun(4, false, 0, nil, nil, false), recorder: true},
		// CI
		{old: "jrpm-doctor -w FourierTest -o doctor-reports/FourierTest.txt", new: "doctor -w FourierTest -o doctor-reports/FourierTest.txt", want: oldDoctor(4, nil, nil, true, "FourierTest")},
		{old: "jrpm-doctor -w db -json -o doctor-reports/db.json", new: "doctor -w db -json -o doctor-reports/db.json", want: oldDoctor(4, nil, nil, true, "db")},
		{old: "jrpm-trace -w BitOps -o trace.json -metrics metrics.txt", new: "trace -w BitOps -o trace.json -metrics metrics.txt", want: oldDoctor(4, nil, nil, false, "BitOps"), recorder: true},
		// The verify skill
		{old: "jrpm-run -seq " + prog, new: "run -seq " + prog, want: oldRun(4, false, 0, nil, nil, false)},
		{old: "jrpm-run -cpus 8 -faults seed=1,jit=1 " + prog, new: "run -cpus 8 -faults seed=1,jit=1 " + prog, want: oldRun(8, false, 0, plan(t, "seed=1,jit=1"), nil, false)},
		{old: "jrpm-bench -table 3 -faults seed=7,raw=0.02,overflow=0.05,bus=0.1 -guard",
			new:  "bench -table 3 -faults seed=7,raw=0.02,overflow=0.05,bus=0.1 -guard",
			want: oldRun(4, false, 0, plan(t, "seed=7,raw=0.02,overflow=0.05,bus=0.1"), guard(), false)},
		{old: "jrpm -loops BitOps", new: "run -loops BitOps", want: oldJrpm(4, false, false, false)},
	}
	for _, c := range cases {
		t.Run(c.new, func(t *testing.T) {
			got := bindNew(t, strings.Fields(c.new))
			if g, w := codec.EncodeOptions(got), codec.EncodeOptions(c.want); !bytes.Equal(g, w) {
				t.Errorf("%q: options encoding differs from %q's:\n got %+v\nwant %+v", c.new, c.old, got, c.want)
			}
			if got.Diagnose != c.want.Diagnose {
				t.Errorf("%q: Diagnose = %v, %q set %v", c.new, got.Diagnose, c.old, c.want.Diagnose)
			}
			if (got.Recorder != nil) != c.recorder {
				t.Errorf("%q: recorder attached = %v, %q: %v", c.new, got.Recorder != nil, c.old, c.recorder)
			}
			if _, ok := got.Ctx.Deadline(); ok != c.deadline {
				t.Errorf("%q: deadline = %v, %q: %v", c.new, ok, c.old, c.deadline)
			}
		})
	}
}

// TestDeltaBlueGetsItsHeap pins the one intended difference: cmd/jrpm built
// deltaBlue without its 3,000-word heap, which every other surface used.
func TestDeltaBlueGetsItsHeap(t *testing.T) {
	t.Setenv("JRPM_TIER", "")
	want := oldJrpm(4, false, false, false)
	want.VM.HeapWords = 3000
	if got := bindNew(t, []string{"run", "deltaBlue"}); !bytes.Equal(codec.EncodeOptions(got), codec.EncodeOptions(want)) {
		t.Fatalf("run deltaBlue: heap %d, want 3000", got.VM.HeapWords)
	}
}

// TestServiceInvocationsBindIdenticalConfigs: serve and fleet spellings
// yield the serve.Config and fleet.Config the retired binaries built, and
// the same listen address and grace period.
func TestServiceInvocationsBindIdenticalConfigs(t *testing.T) {
	serveDefaults := func(mod func(*serve.Config)) serve.Config {
		c := serve.Config{QueueDepth: 64, DefaultDeadline: 30 * time.Second, MaxDeadline: 2 * time.Minute}
		if mod != nil {
			mod(&c)
		}
		return c
	}
	serves := []struct {
		args  string
		want  serve.Config
		addr  string
		grace time.Duration
	}{
		{"-addr :8080", serveDefaults(nil), ":8080", 10 * time.Second},
		{"-data /tmp/jrpm", serveDefaults(func(c *serve.Config) { c.DataDir = "/tmp/jrpm" }), ":8080", 10 * time.Second},
		{"-addr :8080 -workers 4 -queue 16 -deadline 10s -grace 5s -metrics -",
			serveDefaults(func(c *serve.Config) { c.Workers, c.QueueDepth, c.DefaultDeadline = 4, 16, 10*time.Second }), ":8080", 5 * time.Second},
		{"-addr :8081", serveDefaults(nil), ":8081", 10 * time.Second},
		{"-addr :8080 -data /tmp/jrpm-data -checkpoint-every 10ms",
			serveDefaults(func(c *serve.Config) { c.DataDir, c.CheckpointEvery = "/tmp/jrpm-data", 10*time.Millisecond }), ":8080", 10 * time.Second},
		{"-addr 127.0.0.1:18080 -grace 10s -metrics serve-metrics.txt", serveDefaults(nil), "127.0.0.1:18080", 10 * time.Second},
		{"-addr 127.0.0.1:18083 -data crash-data -checkpoint-every 10ms",
			serveDefaults(func(c *serve.Config) { c.DataDir, c.CheckpointEvery = "crash-data", 10*time.Millisecond }), "127.0.0.1:18083", 10 * time.Second},
		{"-tier=off -cyclebudget 5000000",
			serveDefaults(func(c *serve.Config) { c.Tier2Off, c.MaxCycles = true, 5000000 }), ":8080", 10 * time.Second},
	}
	for _, c := range serves {
		f, got, err := parseServe(strings.Fields(c.args))
		if err != nil {
			t.Fatalf("serve %s: %v", c.args, err)
		}
		if got != c.want || f.addr != c.addr || f.grace != c.grace {
			t.Errorf("serve %s: config %+v addr %q grace %v, want %+v %q %v", c.args, got, f.addr, f.grace, c.want, c.addr, c.grace)
		}
	}

	two := []string{"http://127.0.0.1:18081", "http://127.0.0.1:18082"}
	fleets := []struct {
		args  string
		want  fleet.Config
		urls  []string
		addr  string
		grace time.Duration
	}{
		{"-replicas http://localhost:8081,http://localhost:8082", fleet.Config{HedgeAfter: 2 * time.Second},
			[]string{"http://localhost:8081", "http://localhost:8082"}, ":9090", 10 * time.Second},
		{"-addr :9090 -replicas http://localhost:8081,http://localhost:8082,http://localhost:8083 -hedge-after 2s -metrics -",
			fleet.Config{HedgeAfter: 2 * time.Second},
			[]string{"http://localhost:8081", "http://localhost:8082", "http://localhost:8083"}, ":9090", 10 * time.Second},
		{"-addr 127.0.0.1:19090 -replicas http://127.0.0.1:18081,http://127.0.0.1:18082 -grace 10s -metrics fleet-metrics.txt",
			fleet.Config{HedgeAfter: 2 * time.Second}, two, "127.0.0.1:19090", 10 * time.Second},
		{"-replicas http://127.0.0.1:18081/,http://127.0.0.1:18082 -tier off -cyclebudget 7 -cache-bytes -1 -vnodes 8 -hedge-after 0",
			fleet.Config{CacheBytes: -1, VNodes: 8, Serve: serve.Config{MaxCycles: 7, Tier2Off: true}}, two, ":9090", 10 * time.Second},
	}
	for _, c := range fleets {
		f, got, urls, err := parseFleet(strings.Fields(c.args))
		if err != nil {
			t.Fatalf("fleet %s: %v", c.args, err)
		}
		if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(urls, c.urls) || f.addr != c.addr ||
			f.grace != c.grace || f.timeout != 60*time.Second {
			t.Errorf("fleet %s: config %+v urls %v addr %q grace %v timeout %v", c.args, got, urls, f.addr, f.grace, f.timeout)
		}
	}
}
