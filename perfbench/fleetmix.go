package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"jrpm/internal/bytecode"
	"jrpm/internal/cache"
	"jrpm/internal/codec"
	"jrpm/internal/fleet"
	"jrpm/internal/progen"
	"jrpm/internal/serve"
	"jrpm/internal/workloads"
)

// fleetLimit is fleet-mix's latency limit per job.
const fleetLimit = 100 * time.Millisecond

// fleetClients is how many clients fleet-mix runs. Each sends its next job
// once the previous one has been answered and checked, as callers that wait
// for their results do. An open loop was tried first: on the 2-CPU machine
// the benchmark was tuned on, its p99 was set by host stalls that back up
// every job due meanwhile, and varied by a quarter to a third between runs of
// one seed at every rate from 250 to 450 jobs/s.
const fleetClients = 2

// fleetRig is fleet-mix's system under test: a fleet.Router with production
// defaults (64 MiB cache, 2 s hedge) over two durable serve replicas with
// one worker each and default checkpointing.
type fleetRig struct {
	dirs    []string
	servers []*serve.Server
	router  *fleet.Router
}

func openRig(tmp string) (*fleetRig, error) {
	rig := &fleetRig{}
	var backends []fleet.Backend
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(tmp, "replica")
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.dirs = append(rig.dirs, dir)
		s, _, err := serve.Open(serve.Config{Workers: 1, DataDir: dir})
		if err != nil {
			rig.close()
			return nil, err
		}
		s.Start()
		rig.servers = append(rig.servers, s)
		backends = append(backends, &timedBackend{LocalBackend: fleet.LocalBackend{
			ReplicaName: fmt.Sprintf("replica-%d", i), Server: s}})
	}
	rig.router = fleet.New(fleet.Config{
		CacheBytes: cache.DefaultMaxBytes,
		HedgeAfter: 2 * time.Second,
		Serve:      serve.Config{Workers: 1},
	}, backends)
	return rig, nil
}

// close drains the replicas and removes their data directories.
func (r *fleetRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range r.servers {
		s.Shutdown(ctx)
	}
	var errs []error
	for _, d := range r.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}

// warm runs every Table 3 workload through the router, filling its cache,
// and checks each result against the golden rows. It returns the rows in
// workloads.All order.
func (r *fleetRig) warm(golden map[string]goldenRow) ([]simRow, error) {
	all := workloads.All()
	rows := make([]simRow, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, w := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := r.router.Do(ctx, serve.JobSpec{Workload: w.Name})
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			res, err := codec.DecodeResult(out.Wire)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			rows[i] = rowOf(res)
			errs[i] = checkGolden(golden, w.Name, rows[i])
		}()
	}
	wg.Wait()
	return rows, errors.Join(errs...)
}

// jobTrace carries a traced fleet job's span context to timedBackend.
type jobTrace struct {
	rec   *recorder
	job   int64
	route int // the fleet.route span
}

type jobTraceKey struct{}

// timedBackend is fleet.LocalBackend with spans around the serve calls of
// traced jobs. Untraced jobs take LocalBackend's own path.
type timedBackend struct {
	fleet.LocalBackend
}

// Run submits, waits and fetches the result as LocalBackend.Run does,
// recording serve.submit and serve.wait spans for a traced job.
func (b *timedBackend) Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error) {
	jt, ok := ctx.Value(jobTraceKey{}).(*jobTrace)
	if !ok {
		return b.LocalBackend.Run(ctx, spec)
	}
	id := jt.rec.begin(jt.job, jt.route, "serve.backend")
	defer jt.rec.end(id)
	t0 := time.Now()
	view, err := b.Server.Submit(spec)
	t1 := time.Now()
	jt.rec.add(jt.job, id, "serve.submit", t0, t1)
	if err != nil {
		return nil, serve.JobView{}, err
	}
	defer func() { jt.rec.add(jt.job, id, "serve.wait", t1, time.Now()) }()
	view, err = b.Server.Wait(ctx, view.ID)
	if err != nil {
		return nil, view, err
	}
	if view.Status != serve.StatusDone {
		if ctx.Err() != nil {
			return nil, view, context.Cause(ctx)
		}
		if view.Status == serve.StatusCancelled {
			return nil, view, fmt.Errorf("%w: %s", fleet.ErrInterrupted, view.Error)
		}
		return nil, view, fmt.Errorf("%w: status %s: %s", fleet.ErrJobFailed, view.Status, view.Error)
	}
	wire, err := b.Server.ResultBytes(view.ID)
	return wire, view, err
}

// fleetJob is one fleet-mix submission.
type fleetJob struct {
	id     int64
	pick   fleetPick
	spec   serve.JobSpec
	oracle []int64 // the AST interpreter's output, for progen sources
	traced bool
}

// fleetInput builds job i of a run from the seed: its spec and, for a
// progen source, the AST interpreter's output.
func fleetInput(cfg *config, i int) (fleetJob, error) {
	p := fleetPickAt(cfg.seed, i)
	j := fleetJob{id: int64(i), pick: p, traced: cfg.trace && i%2 == 0}
	if p.Kind == kindPopular {
		j.spec = serve.JobSpec{Workload: p.Workload}
		return j, nil
	}
	fp, bp, err := progen.Lower(progen.Generate(p.Seed, progen.DefaultConfig()))
	if err != nil {
		return j, fmt.Errorf("progen seed %d: %w", p.Seed, err)
	}
	if j.oracle, err = fp.Interpret(200_000_000); err != nil {
		return j, fmt.Errorf("progen seed %d: interpreter: %w", p.Seed, err)
	}
	j.spec = serve.JobSpec{Source: bytecode.Format(bp), Diagnose: p.Kind == kindDiagnose}
	return j, nil
}

// fleetRecord is what fleet-mix keeps of a job once it has been checked.
type fleetRecord struct {
	id       int64
	kind     fleetKind
	traced   bool
	sample   jobSample
	err      error // the job failed, or its result was wrong
	diverged bool  // see checkOracle

	hit, coalesced     bool
	executed, degraded bool    // a replica ran the job; its result came from below the requested rung
	queueMS, execMS    float64 // from the replica's JobView

	// Traced jobs only.
	hitUS, encUS, decUS, hashUS float64
	wireLen                     int
}

// runFleet drives fleet-mix: fleetClients clients in a closed loop into the
// router. Each window's jobs go to a freshly opened fleet, so that every
// window measures a fleet in the same state.
func runFleet(cfg *config, golden map[string]goldenRow, o *outcome) error {
	tmp := cfg.tmpDir()
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		warmRows []simRow
		recs     []fleetRecord
		peaks    []float64
		next     atomic.Int64 // the next job number
	)
	// Every fleet opened counts as a set-up; the last windowCount of them
	// each serve one window.
	fleets := max(cfg.setups, windowCount)
	for k := 0; k < fleets; k++ {
		t0 := time.Now()
		rig, err := openRig(tmp)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if warmRows, err = rig.warm(golden); err != nil {
			rig.close()
			return fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		if w := k - (fleets - windowCount); w >= 0 {
			span := cfg.window() / windowCount
			wrecs, peak, err := rig.serveWindow(cfg, rec, golden, &next, time.Duration(w)*span, span)
			if err != nil {
				rig.close()
				return err
			}
			recs = append(recs, wrecs...)
			peaks = append(peaks, peak)
		}
		if err := rig.close(); err != nil {
			return err
		}
		// Hand the closed fleet's memory back to the OS, so that every
		// window's peak_rss_mb starts from the same resident set.
		debug.FreeOSMemory()
	}
	o.metrics["peak_rss_mb"], o.detail["peak_rss_mb_by_window"] = median(peaks), peaks

	fleetMetrics(cfg, recs, rec, o)
	var agg simAgg
	for i, w := range workloads.All() {
		agg.add(warmRows[i], w.Paper.Speedup, -1, false)
	}
	o.metrics["sim_speedup_geomean"] = agg.speedupGeomean()
	if cfg.trace {
		agg.perLayer(o.metrics)
		return rec.write(cfg.spansPath())
	}
	return nil
}

// serveWindow runs the clients against the rig for span, taking job numbers
// from next, and returns a record of every job with the peak resident set
// size meanwhile. offset is the window's start within the run's measured
// time.
func (r *fleetRig) serveWindow(cfg *config, rec *recorder, golden map[string]goldenRow, next *atomic.Int64,
	offset, span time.Duration) ([]fleetRecord, float64, error) {
	start := time.Now()
	rss := startRSS(start)
	var (
		mu   sync.Mutex
		recs []fleetRecord
		errs = make([]error, fleetClients)
		wg   sync.WaitGroup
	)
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < span {
				j, err := fleetInput(cfg, int(next.Add(1)-1))
				if err != nil {
					errs[c] = err
					return
				}
				sent := time.Now()
				out, err := r.do(rec, &j)
				done := time.Now()
				fr := checkFleetJob(j, out, err, golden)
				fr.sample.at = offset + done.Sub(start)
				fr.sample.ms = ms(done.Sub(sent))
				fr.sample.good = fr.err == nil && done.Sub(sent) <= fleetLimit
				if fr.traced && fr.hit {
					fr.hitUS = us(done.Sub(sent))
				}
				mu.Lock()
				recs = append(recs, fr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	samples, err := rss.finish()
	return recs, peakMB(samples), errors.Join(append(errs, err)...)
}

// do routes one job through the fleet. A traced job also times Router.Key
// and records spans for the route and the serve calls behind it.
func (r *fleetRig) do(rec *recorder, j *fleetJob) (fleet.Outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if !j.traced {
		return r.router.Do(ctx, j.spec)
	}
	root := rec.begin(j.id, -1, "job")
	defer rec.end(root)
	k0 := time.Now()
	_, err := r.router.Key(j.spec)
	rec.add(j.id, root, "fleet.key", k0, time.Now())
	if err != nil {
		return fleet.Outcome{}, err
	}
	route := rec.begin(j.id, root, "fleet.route")
	defer rec.end(route)
	ctx = context.WithValue(ctx, jobTraceKey{}, &jobTrace{rec: rec, job: j.id, route: route})
	return r.router.Do(ctx, j.spec)
}

// checkFleetJob decodes a job's wire result and checks it: a Table 3 name against
// its golden row, a progen source against the AST interpreter. For a traced
// job it also times decoding, re-encoding (which must give the same bytes)
// and hashing the program.
func checkFleetJob(j fleetJob, out fleet.Outcome, err error, golden map[string]goldenRow) fleetRecord {
	fr := fleetRecord{id: j.id, kind: j.pick.Kind, traced: j.traced, hit: out.CacheHit, coalesced: out.Coalesced}
	fail := func(err error) fleetRecord {
		fr.err = fmt.Errorf("job %d (%s): %w", j.id, j.pick.Kind, err)
		return fr
	}
	if err != nil {
		return fail(err)
	}
	d0 := time.Now()
	res, err := codec.DecodeResult(out.Wire)
	d1 := time.Now()
	if err != nil {
		return fail(err)
	}
	row := rowOf(res)
	if j.pick.Kind == kindPopular {
		err = checkGolden(golden, j.pick.Workload, row)
	} else {
		fr.diverged, err = checkOracle(fmt.Sprintf("progen seed %d", j.pick.Seed), j.oracle, row)
	}
	if err != nil {
		return fail(err)
	}
	if v := out.View; !out.CacheHit && !out.Coalesced && v.StartedAt != nil && v.FinishedAt != nil {
		fr.executed, fr.degraded = true, v.Degraded
		fr.sample.cycles = row.Seq.Cycles + row.Profile.Cycles + row.TLS.Cycles
		fr.queueMS = ms(v.StartedAt.Sub(v.SubmittedAt))
		fr.execMS = ms(v.FinishedAt.Sub(*v.StartedAt))
	}
	if j.traced {
		fr.decUS = us(d1.Sub(d0))
		e0 := time.Now()
		wire := codec.EncodeResult(res)
		fr.encUS = us(time.Since(e0))
		if !bytes.Equal(wire, out.Wire) {
			return fail(errors.New("result encoding is not canonical"))
		}
		fr.wireLen = len(wire)
		if bp, _, err := serve.BuildProgram(j.spec); err == nil {
			h0 := time.Now()
			codec.ProgramHash(bp)
			fr.hashUS = us(time.Since(h0))
		}
	}
	return fr
}

// fleetMetrics derives fleet-mix's metrics from the job records.
func fleetMetrics(cfg *config, recs []fleetRecord, rec *recorder, o *outcome) {
	var (
		samples                       []jobSample
		latTraced, latUntraced        []float64
		good, sheds, hits             int
		coalesced, executed, degraded int
		byKind                        = map[fleetKind][]float64{}
		queueWait, exec, execDiag     []float64 // ms
		hitUS, keyUS, submitUS        []float64
		encUS, decUS, hashUS, wireLen []float64
	)
	for _, r := range recs {
		o.attempted++
		if r.err != nil {
			if errors.Is(r.err, serve.ErrQueueFull) || errors.Is(r.err, serve.ErrCircuitOpen) || errors.Is(r.err, serve.ErrDraining) {
				sheds++
			}
			o.fail(r.err)
			continue
		}
		if r.diverged {
			o.diverged = append(o.diverged, fmt.Sprintf("fleet job %d", r.id))
		}
		samples = append(samples, r.sample)
		byKind[r.kind] = append(byKind[r.kind], r.sample.ms)
		if r.sample.good {
			good++
		}
		if r.traced {
			latTraced = append(latTraced, r.sample.ms)
		} else {
			latUntraced = append(latUntraced, r.sample.ms)
		}
		if r.hit {
			hits++
			if r.traced {
				hitUS = append(hitUS, r.hitUS)
			}
		}
		if r.coalesced {
			coalesced++
		}
		if r.executed {
			executed++
			if r.degraded {
				degraded++
			}
			queueWait = append(queueWait, r.queueMS)
			if r.kind == kindDiagnose {
				execDiag = append(execDiag, r.execMS)
			} else {
				exec = append(exec, r.execMS)
			}
		}
		if r.traced {
			encUS, decUS, hashUS = append(encUS, r.encUS), append(decUS, r.decUS), append(hashUS, r.hashUS)
			wireLen = append(wireLen, float64(r.wireLen))
		}
	}

	m := o.metrics
	kinds := map[string]any{}
	for k, l := range byKind {
		pct, v, n := tail(l)
		kinds[k.String()] = map[string]any{"p50_ms": median(l), "tail_ms": v, "tail_percentile": pct, "samples": n}
	}
	o.detail["latency_by_kind"] = kinds
	ws := windows(samples, cfg.window(), func(s jobSample) time.Duration { return s.at })
	throughputMetrics(o, ws, fleetClients)
	latencyMetrics(o, ws)
	if !cfg.trace {
		return
	}

	spans := rec.snapshot()
	self := selfTimes(spans)
	var routeUS []float64
	for _, r := range recs {
		if r.traced && r.executed {
			routeUS = append(routeUS, float64(self[r.id]["fleet.route"])/1e3)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "fleet.key":
			keyUS = append(keyUS, float64(s.dur())/1e3)
		case "serve.submit":
			submitUS = append(submitUS, float64(s.dur())/1e3)
		}
	}
	m["slo_miss_frac"] = 1 - frac(float64(good), float64(o.attempted))
	m["bench.trace_overhead_frac"] = frac(median(latTraced), median(latUntraced)) - 1
	m["cache.hit_frac"] = frac(float64(hits), float64(len(samples)))
	m["cache.coalesced_frac"] = frac(float64(coalesced), float64(len(samples)))
	m["cache.hit_latency_us"] = mean(hitUS)
	m["fleet.key_us"] = mean(keyUS)
	m["fleet.route_us"] = mean(routeUS)
	m["serve.submit_us"] = mean(submitUS)
	m["serve.queue_wait_ms"] = mean(queueWait)
	m["serve.exec_ms"] = mean(exec)
	m["serve.exec_diagnose_ms"] = mean(execDiag)
	m["serve.shed_frac"] = frac(float64(sheds), float64(o.attempted))
	m["serve.degraded_frac"] = frac(float64(degraded), float64(executed))
	m["codec.encode_result_us"] = mean(encUS)
	m["codec.decode_result_us"] = mean(decUS)
	m["codec.program_hash_us"] = mean(hashUS)
	m["codec.result_bytes"] = mean(wireLen)
}
