package main

import (
	"bytes"
	"fmt"
	"time"

	"jrpm/internal/bytecode"
	"jrpm/internal/codec"
	"jrpm/internal/core"
	fe "jrpm/internal/frontend"
	"jrpm/internal/progen"
	"jrpm/internal/workloads"
)

// closedJob is one job of a closed-loop workload: a frontend build followed
// by core.Run. Generating the input and checking the output happen outside
// the timed job.
type closedJob struct {
	name  string
	opts  core.Options
	paper float64 // Figure 8 speedup, 0 when the program has none
	// build is the frontend stage: it turns the job's input into bytecode.
	// It may be called more than once and must return an equal program.
	build func() (*bytecode.Program, error)
	// check verifies a result; it runs after build. diverged reports a
	// speculative divergence the pipeline detected itself (see checkOracle).
	check func(simRow) (diverged bool, err error)
}

// closedWorkload is a closed loop with one client: the next job starts when
// the previous one has finished and been checked.
type closedWorkload struct {
	// refJobs is how many leading jobs form the reference set whose
	// simulated outcome gives the exact metrics. The run lasts at least that
	// many jobs.
	refJobs int
	limit   time.Duration // latency limit for goodput
	// setup is one set-up: build the programs and run a warm-up batch.
	setup func() error
	// job returns job i of the run.
	job func(i int) closedJob
}

// table3Workload runs the 26 Table 3 programs in a seeded order each pass
// and checks each result against the golden rows.
func table3Workload(cfg *config, golden map[string]goldenRow) *closedWorkload {
	optsFor := func(w *workloads.Workload) core.Options {
		opts := core.DefaultOptions()
		if w.HeapWords > 0 {
			opts.VM.HeapWords = w.HeapWords
		}
		return opts
	}
	jobOf := func(w *workloads.Workload) closedJob {
		return closedJob{
			name:  w.Name,
			opts:  optsFor(w),
			paper: w.Paper.Speedup,
			build: func() (*bytecode.Program, error) { return w.Build(), nil },
			check: func(r simRow) (bool, error) { return false, checkGolden(golden, w.Name, r) },
		}
	}
	pass, order := -1, []*workloads.Workload(nil)
	return &closedWorkload{
		refJobs: len(workloads.All()),
		limit:   time.Second,
		setup: func() error {
			for _, w := range workloads.All() {
				j := jobOf(w)
				res, err := core.Run(w.Build(), j.opts)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				if _, err := j.check(rowOf(res)); err != nil {
					return err
				}
			}
			return nil
		},
		job: func(i int) closedJob {
			n := len(workloads.All())
			if p := i / n; p != pass {
				pass, order = p, table3Order(cfg.seed, p)
			}
			return jobOf(order[i%n])
		},
	}
}

// progenJob builds the closed-loop job for one generated program. The
// program tree is the input; lowering it to bytecode is the frontend stage.
func progenJob(seed int64) closedJob {
	p := progen.Generate(seed, progen.DefaultConfig())
	var fp *fe.Program
	return closedJob{
		name: p.Name,
		opts: core.DefaultOptions(),
		build: func() (*bytecode.Program, error) {
			f, bp, err := progen.Lower(p)
			fp = f
			return bp, err
		},
		check: func(r simRow) (bool, error) {
			want, err := fp.Interpret(200_000_000)
			if err != nil {
				return false, fmt.Errorf("%s: interpreter: %w", p.Name, err)
			}
			return checkOracle(fmt.Sprintf("%s seed %d", p.Name, seed), want, r)
		},
	}
}

// progenWorkload runs distinct seeded progen programs, never repeated, and
// checks each against the frontend's AST interpreter.
func progenWorkload(cfg *config) *closedWorkload {
	warm, ref := 64, 1000
	if cfg.smoke {
		warm, ref = 4, 16
	}
	return &closedWorkload{
		refJobs: ref,
		limit:   250 * time.Millisecond,
		setup: func() error {
			for i := 0; i < warm; i++ {
				j := progenJob(progenSeed(cfg.seed, streamProgenWarm, i))
				bp, err := j.build()
				if err != nil {
					return err
				}
				res, err := core.Run(bp, j.opts)
				if err != nil {
					return fmt.Errorf("%s: %w", j.name, err)
				}
				if _, err := j.check(rowOf(res)); err != nil {
					return err
				}
			}
			return nil
		},
		job: func(i int) closedJob { return progenJob(progenSeed(cfg.seed, streamProgen, i)) },
	}
}

// runPlain times one untraced job: frontend build plus core.Run.
func runPlain(j closedJob) (time.Duration, *core.Result, *bytecode.Program, error) {
	t0 := time.Now()
	bp, err := j.build()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s: build: %w", j.name, err)
	}
	res, err := core.Run(bp, j.opts)
	d := time.Since(t0)
	if err != nil {
		return d, nil, bp, fmt.Errorf("%s: %w", j.name, err)
	}
	return d, res, bp, nil
}

// runTraced times one traced job: the same stages, replayed one by one
// under spans.
func runTraced(rec *recorder, id int64, j closedJob) (time.Duration, replayed, error) {
	t0 := time.Now()
	root := rec.begin(id, -1, "job")
	var bp *bytecode.Program
	var err error
	rec.stage(id, root, "frontend.build", func() { bp, err = j.build() })
	if err != nil {
		rec.end(root)
		return 0, replayed{}, fmt.Errorf("%s: build: %w", j.name, err)
	}
	c := rec.begin(id, root, "core.run")
	rep, err := replay(rec, id, c, bp, j.opts)
	rec.end(c)
	rec.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, rep, fmt.Errorf("%s: replay: %w", j.name, err)
	}
	return d, rep, nil
}

// runClosed drives a closed-loop workload and fills o.
func runClosed(cfg *config, w *closedWorkload, o *outcome) error {
	for k := 0; k < cfg.setups; k++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		jobs               []jobSample
		untraced, traced   []float64 // ms per job, for the tracing overhead
		agg                simAgg
		codecEnc, codecDec []float64 // µs
		codecHash, wireLen []float64
		loops              []int
		instr              [3]float64 // simulated instructions of traced jobs, per phase
	)
	minJobs := w.refJobs
	if !cfg.trace && !cfg.smoke {
		minJobs = max(minJobs, 1000*windowCount) // enough samples for a p99 per window
	}
	start := time.Now()
	rss := startRSS(start)
	for i := 0; i < minJobs || time.Since(start) < cfg.window(); i++ {
		j := w.job(i)
		o.attempted++

		var (
			d   time.Duration
			res *core.Result
			bp  *bytecode.Program
			err error
			row simRow
		)
		if !cfg.trace {
			d, res, bp, err = runPlain(j)
			if err != nil {
				o.fail(err)
				continue
			}
			row = rowOf(res)
		} else {
			// Untraced and traced runs of the same job, in alternating order,
			// give the tracing overhead and prove the replay exact.
			var dt time.Duration
			var rep replayed
			var terr error
			if i%2 == 0 {
				d, res, bp, err = runPlain(j)
				dt, rep, terr = runTraced(rec, int64(i), j)
			} else {
				dt, rep, terr = runTraced(rec, int64(i), j)
				d, res, bp, err = runPlain(j)
			}
			if err == nil {
				err = terr
			}
			if err != nil {
				o.fail(err)
				continue
			}
			row = rowOf(res)
			if rep.row != row {
				o.fail(fmt.Errorf("%s: traced replay %+v differs from core.Run %+v", j.name, rep.row, row))
				continue
			}
			untraced, traced = append(untraced, ms(d)), append(traced, ms(dt))
			for k, p := range []*phaseRow{&row.Seq, &row.Profile, &row.TLS} {
				instr[k] += float64(p.Instructions)
			}
			loops = append(loops, rep.loops)
			enc, dec, hash, n, cerr := timeCodec(res, bp)
			if cerr != nil {
				o.fail(fmt.Errorf("%s: %w", j.name, cerr))
				continue
			}
			codecEnc, codecDec, codecHash, wireLen = append(codecEnc, enc), append(codecDec, dec), append(codecHash, hash), append(wireLen, float64(n))
		}
		diverged, err := j.check(row)
		if err != nil {
			o.fail(err)
			continue
		}
		if diverged {
			o.diverged = append(o.diverged, j.name)
		}
		jobs = append(jobs, jobSample{at: time.Since(start), ms: ms(d),
			cycles: row.Seq.Cycles + row.Profile.Cycles + row.TLS.Cycles, good: d <= w.limit})
		if i < w.refJobs {
			l := -1
			if cfg.trace {
				l = loops[len(loops)-1]
			}
			agg.add(row, j.paper, l, diverged)
		}
	}

	span := time.Since(start)
	samples, err := rss.finish()
	if err != nil {
		return err
	}
	m := o.metrics
	m["peak_rss_mb"], o.detail["peak_rss_mb_by_window"] = medianWindow(
		windows(samples, span, func(s rssSample) time.Duration { return s.at }), peakMB)
	ws := windows(jobs, span, func(s jobSample) time.Duration { return s.at })
	throughputMetrics(o, ws, 1)
	latencyMetrics(o, ws)
	m["sim_speedup_geomean"] = agg.speedupGeomean()
	if cfg.trace {
		agg.perLayer(m)
		layerMetrics(m, rec.snapshot(), instr)
		m["bench.trace_overhead_frac"] = frac(median(traced), median(untraced)) - 1
		m["codec.encode_result_us"] = mean(codecEnc)
		m["codec.decode_result_us"] = mean(codecDec)
		m["codec.program_hash_us"] = mean(codecHash)
		m["codec.result_bytes"] = mean(wireLen)
		return rec.write(cfg.spansPath())
	}
	return nil
}

// timeCodec encodes and decodes one result and hashes its program, as a
// replica and the fleet router do, and checks that the encoding is
// canonical: decoding and re-encoding gives the same bytes.
func timeCodec(res *core.Result, bp *bytecode.Program) (encUS, decUS, hashUS float64, n int, err error) {
	t0 := time.Now()
	wire := codec.EncodeResult(res)
	t1 := time.Now()
	back, err := codec.DecodeResult(wire)
	t2 := time.Now()
	codec.ProgramHash(bp)
	t3 := time.Now()
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("decode result: %w", err)
	}
	if !bytes.Equal(codec.EncodeResult(back), wire) {
		return 0, 0, 0, 0, fmt.Errorf("result encoding is not canonical")
	}
	return us(t1.Sub(t0)), us(t2.Sub(t1)), us(t3.Sub(t2)), len(wire), nil
}

// stageMetric maps span names to the per-layer metric of their self time.
var stageMetric = map[string]string{
	"frontend.build":        "frontend.build_ms",
	"jit.inline":            "jit.inline_ms",
	"cfg.analyze":           "cfg.analyze_ms",
	"jit.compile_plain":     "jit.compile_plain_ms",
	"jit.compile_annotated": "jit.compile_annotated_ms",
	"jit.compile_tls":       "jit.compile_tls_ms",
	"analyzer.select":       "analyzer.select_ms",
	"hydra.setup_seq":       "hydra.setup_seq_ms",
	"hydra.setup_profile":   "hydra.setup_profile_ms",
	"hydra.setup_tls":       "hydra.setup_tls_ms",
	"hydra.run_seq":         "hydra.run_seq_ms",
	"hydra.run_profile":     "hydra.run_profile_ms",
	"hydra.run_tls":         "hydra.run_tls_ms",
	"hydra.release":         "hydra.release_ms",
}

// layerMetrics derives the per-layer host-time metrics of traced
// closed-loop jobs from their spans: each layer's mean self time per job,
// and core.overhead_ms, the rest of the traced job time, so that per job
// the layer self times plus core.overhead_ms add up to the job's time.
func layerMetrics(m map[string]float64, spans []span, instr [3]float64) {
	self := selfTimes(spans)
	jobDur := map[int64]int64{}
	coreKids := map[int][]span{}
	coreSpan := map[int64]int{}
	for _, s := range spans {
		switch s.Name {
		case "job":
			jobDur[s.Job] = s.dur()
		case "core.run":
			coreSpan[s.Job] = s.ID
		}
	}
	for _, s := range spans {
		if id, ok := coreSpan[s.Job]; ok && s.Parent == id {
			coreKids[id] = append(coreKids[id], s)
		}
	}
	sums := map[string]float64{}
	var overhead, overlapSum, jobSum float64
	for job, dur := range jobDur {
		layers := int64(0)
		for name, ns := range self[job] {
			if metric, ok := stageMetric[name]; ok {
				sums[metric] += float64(ns)
				layers += ns
			}
		}
		overhead += float64(dur - layers)
		overlapSum += float64(overlap(coreKids[coreSpan[job]]))
		jobSum += float64(dur)
	}
	n := float64(len(jobDur))
	for _, metric := range stageMetric {
		m[metric] = frac(sums[metric], n) / 1e6
	}
	m["core.overhead_ms"] = frac(overhead, n) / 1e6
	m["core.seq_overlap_ms"] = frac(overlapSum, n) / 1e6
	m["bench.traced_job_ms"] = frac(jobSum, n) / 1e6
	m["tracer.host_overhead_frac"] = frac(sums["hydra.run_profile_ms"], sums["hydra.run_seq_ms"]) - 1
	for k, ph := range []string{"seq", "profile", "tls"} {
		m["hydra.ns_per_instr_"+ph] = frac(sums["hydra.run_"+ph+"_ms"], instr[k])
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
