package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"jrpm/internal/bytecode"
	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/diagnose"
	"jrpm/internal/faultinject"
	"jrpm/internal/hydra"
	"jrpm/internal/obs"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// Rung is one level of the graceful-degradation ladder. Jobs in auto mode
// start at RungTLS and fall one rung at a time when the attempt blows its
// deadline slice, storms, panics, or diverges; RungSeq is unconditionally
// safe (plain sequential VM, no speculation, no analyzer).
type Rung string

// Ladder rungs, strongest first.
const (
	RungTLS     Rung = "tls"     // full five-step speculative pipeline
	RungProfile Rung = "profile" // baseline + profiling + analysis, no speculation
	RungSeq     Rung = "seq"     // plain sequential VM only
)

// ladder is the rung order for auto mode.
var ladder = []Rung{RungTLS, RungProfile, RungSeq}

// Status is a job's lifecycle state.
type Status string

// Job statuses.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// JobSpec is a submission: exactly one of Workload (a built-in benchmark
// name) or Source (a textual Jrpm-IR assembly program) must be set.
type JobSpec struct {
	Name     string `json:"name,omitempty"`     // display name (defaults to the workload name or "program")
	Workload string `json:"workload,omitempty"` // built-in workload to run
	Source   string `json:"source,omitempty"`   // jasm program text to assemble and run

	NCPU       int    `json:"ncpu,omitempty"`        // simulated CPUs (default 4, max 8)
	DeadlineMS int64  `json:"deadline_ms,omitempty"` // wall-clock deadline from submission (default/cap from Config)
	MaxCycles  int64  `json:"max_cycles,omitempty"`  // simulated-cycle budget per run (default from Config)
	Faults     string `json:"faults,omitempty"`      // faultinject plan spec for the speculative phase
	Mode       string `json:"mode,omitempty"`        // "auto" (ladder, default) or a pinned rung: "tls", "profile", "seq"
	Trace      bool   `json:"trace,omitempty"`       // keep a flight-recorder ring for GET /jobs/{id}/trace
	Diagnose   bool   `json:"diagnose,omitempty"`    // attach the speculation doctor for GET /jobs/{id}/doctor

	// Checkpoint, when non-empty, is an encoded codec checkpoint envelope:
	// the job resumes mid-simulation from this safepoint instead of running
	// from the start (crash recovery re-enqueues interrupted jobs this way,
	// and fleet migration hands a drained replica's checkpoint to the next).
	// A checkpoint that fails to decode or belongs to a different rung is
	// dropped and the job restarts from the program — same bit-identical
	// outcome, just more cycles re-simulated.
	Checkpoint []byte `json:"checkpoint,omitempty"`

	// testAttempt, when non-nil, replaces the real pipeline attempt —
	// in-package tests use it to script deterministic ladder outcomes
	// (including panics) without constructing pathological programs.
	testAttempt func(rung Rung) (*core.Result, error)
}

// Attempt records one rung attempt of a job, successful or not.
type Attempt struct {
	Rung  Rung   `json:"rung"`
	Err   string `json:"err,omitempty"`
	Panic string `json:"panic,omitempty"` // recovered panic stack, if the attempt panicked
}

// JobView is the externally visible snapshot of a job. All fields are
// copies; mutating a view never races with the running job.
type JobView struct {
	ID     int64   `json:"id"`
	Name   string  `json:"name"`
	Spec   JobSpec `json:"spec"`
	Status Status  `json:"status"`

	Rung     Rung      `json:"rung,omitempty"`     // rung that produced the result
	Degraded bool      `json:"degraded,omitempty"` // result came from below the requested rung
	Resumed  bool      `json:"resumed,omitempty"`  // result continued a checkpoint instead of running from the start
	Attempts []Attempt `json:"attempts,omitempty"` // failed attempts that preceded the result
	Error    string    `json:"error,omitempty"`

	SeqCycles        int64            `json:"seq_cycles,omitempty"`
	TLSCycles        int64            `json:"tls_cycles,omitempty"`
	PredictedCycles  int64            `json:"predicted_cycles,omitempty"`
	Speedup          float64          `json:"speedup,omitempty"`
	Output           []int64          `json:"output,omitempty"`
	FaultsFired      map[string]int64 `json:"faults_fired,omitempty"`
	DecertifiedLoops []int64          `json:"decertified_loops,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// job is the server-side state. The view is the single mutable surface,
// guarded by mu; done closes exactly once when the job reaches a terminal
// status.
type job struct {
	mu   sync.Mutex
	view JobView

	deadline time.Time
	cancel   context.CancelCauseFunc
	done     chan struct{}
	ring     *obs.Ring        // non-nil when the spec asked for a trace
	doctor   *diagnose.Report // non-nil once a diagnosed TLS rung succeeds
	wire     []byte           // canonical codec encoding of the full result, set on success
	bkey     string           // circuit-breaker key

	cc   *core.CheckpointController // live while a checkpointable attempt runs
	ckpt []byte                     // latest encoded checkpoint envelope
}

// setCheckpoint publishes the latest encoded checkpoint. The slice is never
// mutated afterwards, so readers share it.
func (j *job) setCheckpoint(wire []byte) {
	j.mu.Lock()
	j.ckpt = wire
	j.mu.Unlock()
}

func (j *job) checkpointBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckpt
}

func (j *job) setController(cc *core.CheckpointController) {
	j.mu.Lock()
	j.cc = cc
	j.mu.Unlock()
}

func (j *job) controller() *core.CheckpointController {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cc
}

// setWire publishes the canonical result encoding. The byte slice is never
// mutated after this, so readers share it without copying.
func (j *job) setWire(b []byte) {
	j.mu.Lock()
	j.wire = b
	j.mu.Unlock()
}

func (j *job) wireBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wire
}

// setDoctor publishes the doctor report; the report is immutable after
// Build, so sharing the pointer with readers is safe.
func (j *job) setDoctor(rep *diagnose.Report) {
	j.mu.Lock()
	if rep.Name == "" {
		rep.Name = j.view.Name
	}
	j.doctor = rep
	j.mu.Unlock()
}

func (j *job) doctorReport() *diagnose.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doctor
}

// snapshot copies the view for external consumption (deep enough that the
// caller cannot race the worker: slices and maps are cloned).
func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.view
	v.Attempts = append([]Attempt(nil), j.view.Attempts...)
	v.Output = append([]int64(nil), j.view.Output...)
	v.DecertifiedLoops = append([]int64(nil), j.view.DecertifiedLoops...)
	if j.view.FaultsFired != nil {
		v.FaultsFired = make(map[string]int64, len(j.view.FaultsFired))
		for k, n := range j.view.FaultsFired {
			v.FaultsFired[k] = n
		}
	}
	return v
}

func (j *job) snapshotSpec() JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view.Spec
}

func (j *job) status() (Status, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view.Status, j.view.Error
}

// terminal reports whether the job already reached a final status.
func (j *job) terminal() bool {
	st, _ := j.status()
	return st == StatusDone || st == StatusFailed || st == StatusCancelled
}

// setCancel installs the running job's cancel function; if a client cancel
// arrived while the job was still queued, it fires immediately.
func (j *job) setCancel(cancel context.CancelCauseFunc) {
	j.mu.Lock()
	already := j.view.Status == StatusCancelled
	j.cancel = cancel
	j.mu.Unlock()
	if already {
		cancel(ErrJobCancelled)
	}
}

func (j *job) markRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.view.Status == StatusQueued {
		j.view.Status = StatusRunning
		now := time.Now()
		j.view.StartedAt = &now
	}
}

// finish transitions to a terminal status exactly once; later transitions
// are ignored (first terminal status wins).
func (j *job) finish(mutate func(v *JobView)) {
	j.mu.Lock()
	if j.view.Status != StatusQueued && j.view.Status != StatusRunning {
		j.mu.Unlock()
		return
	}
	mutate(&j.view)
	now := time.Now()
	j.view.FinishedAt = &now
	j.mu.Unlock()
	close(j.done)
}

func (j *job) recordAttempt(rung Rung, err error) {
	a := Attempt{Rung: rung, Err: err.Error()}
	var pe *PanicError
	if errors.As(err, &pe) {
		a.Panic = pe.Stack
	}
	j.mu.Lock()
	j.view.Attempts = append(j.view.Attempts, a)
	j.mu.Unlock()
}

func (j *job) fail(err error) {
	j.finish(func(v *JobView) {
		v.Status = StatusFailed
		v.Error = err.Error()
	})
}

func (j *job) cancelled(cause error) {
	j.finish(func(v *JobView) {
		v.Status = StatusCancelled
		if v.Error == "" {
			v.Error = cause.Error()
		}
	})
}

func (j *job) succeed(rung Rung, degraded, resumed bool, res *core.Result) {
	j.finish(func(v *JobView) {
		v.Status = StatusDone
		v.Rung = rung
		v.Degraded = degraded
		v.Resumed = resumed
		v.SeqCycles = res.Seq.Cycles
		v.TLSCycles = res.TLS.Cycles
		v.PredictedCycles = res.PredictedCycles
		v.Speedup = res.SpeedupActual()
		v.FaultsFired = res.TLS.FaultsFired
		v.DecertifiedLoops = res.TLS.DecertifiedLoops
		switch rung {
		case RungTLS:
			v.Output = res.TLS.Output
		case RungProfile:
			v.Output = res.Profile.Output
		default:
			v.Output = res.Seq.Output
		}
	})
}

// PanicError is a recovered per-job panic: the job fails (or degrades) with
// the stack attached to its result, and the server keeps running.
type PanicError struct {
	Value string
	Stack string
}

// Error renders the panic value; the stack travels in the Attempt record.
func (e *PanicError) Error() string { return "serve: job attempt panicked: " + e.Value }

// Cancellation and degradation causes.
var (
	// ErrJobCancelled is the context cause of an explicit client cancel.
	ErrJobCancelled = errors.New("serve: job cancelled by client")
	// ErrShutdown is the context cause when the grace period expires and
	// the server force-cancels in-flight jobs.
	ErrShutdown = errors.New("serve: server shutting down")
	// ErrDeadline reports that the job's overall wall-clock deadline
	// expired before any rung produced a result.
	ErrDeadline = errors.New("serve: job deadline exceeded")
	// errSliceExpired is the internal cause of a per-rung deadline slice:
	// it triggers degradation, not job failure.
	errSliceExpired = errors.New("serve: rung deadline slice expired")
)

// ParseMode maps a spec mode to the first rung and whether the ladder is
// pinned there (may not degrade below it). The fleet router calls it too,
// so its cache key names the rung a replica would start at.
func ParseMode(mode string) (first Rung, pinned bool, err error) {
	switch mode {
	case "", "auto":
		return RungTLS, false, nil
	case string(RungTLS), string(RungProfile), string(RungSeq):
		return Rung(mode), true, nil
	default:
		return "", false, fmt.Errorf("serve: unknown mode %q (want auto, tls, profile or seq)", mode)
	}
}

// rungsFrom returns the ladder starting at first (just first when pinned).
func rungsFrom(first Rung, pinned bool) []Rung {
	if pinned {
		return []Rung{first}
	}
	for i, r := range ladder {
		if r == first {
			return ladder[i:]
		}
	}
	return []Rung{RungSeq}
}

// degradable classifies an attempt error: true means the next rung down may
// still succeed (speculation-side trouble, panics, slice timeouts); false
// means the failure is deterministic program behaviour that every rung would
// reproduce (bad program, uncaught exception, OOM) or a terminal
// cancellation.
func degradable(err error) bool {
	switch {
	case errors.Is(err, errSliceExpired):
		return true // deadline pressure: drop a rung with the time left
	case errors.Is(err, tls.ErrSpecViolationStorm):
		return true
	case errors.Is(err, hydra.ErrCycleBudgetExceeded):
		return true // a storm can burn the budget before the limit trips
	case errors.Is(err, hydra.ErrInternal):
		return true // simulator bug: retry without speculation
	case errors.Is(err, core.ErrOracleMismatch):
		return true // speculation diverged: the sequential rung is the oracle
	case errors.Is(err, errOutputMismatch):
		return true
	default:
		var pe *PanicError
		return errors.As(err, &pe)
	}
}

// errOutputMismatch reports a pipeline whose speculative output diverged
// from the sequential run without an active fault plan.
var errOutputMismatch = errors.New("serve: speculative output diverged from sequential run")

// BuildProgram resolves a spec to a fresh bytecode program and its heap
// sizing. A fresh build per attempt keeps attempts independent — no
// compiled state leaks from a failed speculative attempt into the
// sequential retry. The fleet router calls it too, so it content-addresses
// submissions with the exact program a replica would run.
func BuildProgram(spec JobSpec) (*bytecode.Program, int, error) {
	if spec.Workload != "" {
		w := workloads.ByName(spec.Workload)
		if w == nil {
			return nil, 0, fmt.Errorf("serve: unknown workload %q", spec.Workload)
		}
		return w.Build(), w.HeapWords, nil
	}
	bp, err := bytecode.Parse(spec.Source)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: parse: %w", err)
	}
	return bp, 0, nil
}

// OptionsFor resolves the effective simulation options a job submitted with
// spec runs with at the given rung, given the heap size its program build
// resolved (BuildProgram's second result). It is the single source of truth
// shared by the attempt path, the fleet router's cache key, and the
// conformance oracle's direct leg — a drift between "what the server runs"
// and "what the key describes" would silently poison the fleet cache, so
// there is exactly one derivation. The runtime-only fields (Ctx, Recorder,
// Checkpoint) are left zero; the attempt path attaches them.
func (c Config) OptionsFor(spec JobSpec, rung Rung, heapWords int) (core.Options, error) {
	c = c.withDefaults()
	opts := core.DefaultOptions()
	opts.Tier2Off = c.Tier2Off
	if spec.NCPU > 0 {
		opts.NCPU = spec.NCPU
	}
	if heapWords > 0 {
		opts.VM.HeapWords = heapWords
	}
	opts.MaxCycles = c.MaxCycles
	if spec.MaxCycles > 0 && spec.MaxCycles < opts.MaxCycles {
		opts.MaxCycles = spec.MaxCycles
	}
	if rung == RungTLS {
		if spec.Faults != "" {
			plan, perr := faultinject.Parse(spec.Faults)
			if perr != nil {
				return core.Options{}, perr
			}
			opts.Faults = &plan
		}
		// The in-run safety net: thrashing loops demote to solo instead of
		// storming the whole job.
		gcfg := tls.DefaultGuardConfig()
		opts.Guard = &gcfg
		// The ledger is passive — cycles are bit-identical with it attached —
		// so diagnosis never perturbs what the job measures.
		opts.Diagnose = spec.Diagnose
	}
	return opts, nil
}

// checkpointEligible reports whether a job's attempts may capture (and
// resume from) safepoint checkpoints: trace, diagnose and fault-plan jobs
// carry observers the snapshot machinery refuses, so they re-run from the
// start after a crash instead.
func checkpointEligible(spec JobSpec) bool {
	return !spec.Trace && !spec.Diagnose && spec.Faults == "" && spec.testAttempt == nil
}

// attempt runs one rung of the ladder with a panic backstop: a panic
// anywhere inside the pipeline is converted to a *PanicError carrying the
// stack, never propagated to the worker goroutine. cc (may be nil) captures
// safepoint checkpoints from the attempt; cp (may be nil) resumes the
// attempt mid-simulation — a checkpoint the resume machinery rejects falls
// back to a clean run from the program. resumed reports which path produced
// the result.
func (s *Server) attempt(ctx context.Context, rung Rung, spec JobSpec, ring *obs.Ring, cc *core.CheckpointController, cp *core.Checkpoint) (res *core.Result, resumed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("jrpm_serve_panics_recovered_total").Inc()
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
			res, resumed = nil, false
		}
	}()
	if spec.testAttempt != nil {
		res, err = spec.testAttempt(rung)
		return res, false, err
	}
	bp, heapWords, err := BuildProgram(spec)
	if err != nil {
		return nil, false, err
	}
	opts, err := s.cfg.OptionsFor(spec, rung, heapWords)
	if err != nil {
		return nil, false, err
	}
	opts.Ctx = ctx
	opts.Checkpoint = cc
	run, resume := core.Run, core.ResumeTLS
	switch rung {
	case RungTLS:
		if ring != nil {
			ring.Reset()
			opts.Recorder = ring
		}
	case RungProfile:
		run, resume = core.RunProfile, core.ResumeProfile
	default:
		run, resume = core.RunSequential, core.ResumeSequential
	}
	if cp != nil {
		res, err = resume(bp, opts, cp)
		if errors.Is(err, core.ErrBadCheckpoint) {
			// Wrong stage/program/options for this rung: the checkpoint is
			// unusable here. Degrade to a clean restart — bit-identical
			// outcome, just more cycles re-simulated.
			s.reg.Counter("jrpm_serve_checkpoint_fallbacks_total").Inc()
			res, err = run(bp, opts)
		} else {
			resumed = err == nil
		}
	} else {
		res, err = run(bp, opts)
	}
	if err != nil {
		return nil, false, err
	}
	if !res.OutputsMatch {
		return nil, false, errOutputMismatch
	}
	return res, resumed, nil
}

// runJob drives one dequeued job down the degradation ladder until a rung
// succeeds, the deadline expires, or the job is cancelled.
func (s *Server) runJob(j *job) {
	spec := j.snapshotSpec()
	jctx, jcancel := context.WithCancelCause(context.Background())
	j.setCancel(jcancel)
	defer jcancel(nil)
	if j.terminal() {
		// Cancelled while queued. Still publish the outcome so a breaker
		// probe abandoned in the queue is released.
		s.finishJob(j)
		return
	}
	j.markRunning()
	s.reg.Gauge("jrpm_serve_jobs_running").Set(float64(s.running.Add(1)))
	defer func() {
		s.reg.Gauge("jrpm_serve_jobs_running").Set(float64(s.running.Add(-1)))
		s.finishJob(j)
	}()

	first, pinned, err := ParseMode(spec.Mode)
	if err != nil {
		j.fail(err)
		return
	}
	rungs := rungsFrom(first, pinned)

	// Checkpoint wiring: one controller outlives all rung attempts, so the
	// latest snapshot survives a degradation (it is simply labelled with the
	// rung that captured it). Delivery re-encodes to the canonical envelope,
	// publishes it for migration fetches, and — when durable — lands the
	// checkpoint file before the journal record that points at it.
	var cc *core.CheckpointController
	var rcp *core.Checkpoint
	if checkpointEligible(spec) {
		id := j.view.ID
		cc = &core.CheckpointController{}
		cc.OnCheckpoint = func(cp *core.Checkpoint, _ int64) {
			wire := codec.EncodeCheckpoint(cp)
			j.setCheckpoint(wire)
			if s.journal != nil {
				if err := s.journal.writeCheckpoint(id, wire); err != nil {
					s.reg.Counter("jrpm_serve_journal_errors_total").Inc()
					return
				}
			}
			s.journalAppend(journalRecord{Event: evCheckpointed, ID: id})
			s.reg.Counter("jrpm_serve_checkpoints_total").Inc()
		}
		j.setController(cc)
		defer j.setController(nil)
		if every := s.cfg.CheckpointEvery; every > 0 {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				tick := time.NewTicker(every)
				defer tick.Stop()
				for {
					select {
					case <-tick.C:
						cc.Request()
					case <-stop:
						return
					}
				}
			}()
		}
		if len(spec.Checkpoint) > 0 {
			cp, derr := codec.DecodeCheckpoint(spec.Checkpoint)
			if derr != nil {
				// Corrupt or stale envelope: a restart from the program is the
				// documented fallback, never a failed job.
				s.reg.Counter("jrpm_serve_checkpoint_fallbacks_total").Inc()
			} else {
				rcp = cp
			}
		}
	}
	for i, rung := range rungs {
		remaining := time.Until(j.deadline)
		if remaining <= 0 {
			j.fail(fmt.Errorf("%w (after %d attempt(s))", ErrDeadline, i))
			return
		}
		// A rung that still has fallbacks below it gets half the remaining
		// budget; the last rung gets everything left. Blowing the slice is
		// deadline pressure — degrade, don't fail.
		slice := remaining
		last := i == len(rungs)-1
		if !last {
			slice = remaining / 2
		}
		// A recovered/migrated checkpoint only applies to the rung that
		// captured it, and only on the first attempt — after a degradation the
		// lower rung re-runs from the program.
		var cp *core.Checkpoint
		if i == 0 && rcp != nil && rcp.Label == string(rung) {
			cp = rcp
		}
		if cc != nil {
			cc.SetLabel(string(rung))
		}
		actx, acancel := context.WithTimeoutCause(jctx, slice, errSliceExpired)
		res, resumed, err := s.attempt(actx, rung, spec, j.ring, cc, cp)
		acancel()
		if err == nil {
			s.reg.Counter("jrpm_serve_jobs_completed_total{status=\"done\"}").Inc()
			if rung != first {
				s.reg.Counter(fmt.Sprintf("jrpm_serve_jobs_degraded_total{rung=%q}", rung)).Inc()
			}
			// The full result travels in canonical wire form so fleet peers
			// (and the conformance oracle) can fetch byte-exact outcomes, not
			// just the JobView summary. Encoding is a few KB per job.
			j.setWire(codec.EncodeResult(res))
			s.addTierMetrics(res)
			if spec.Diagnose && rung == RungTLS {
				if rep, derr := diagnose.Build(res); derr == nil {
					j.setDoctor(rep)
					s.addDoctorMetrics(rep)
				}
			}
			if resumed {
				s.reg.Counter("jrpm_serve_jobs_resumed_total").Inc()
			}
			j.succeed(rung, rung != first, resumed, res)
			return
		}
		j.recordAttempt(rung, err)
		// Terminal cancellation (client cancel, shutdown, overall deadline)
		// is never retried on a lower rung.
		if cause := context.Cause(jctx); cause != nil && !errors.Is(cause, errSliceExpired) {
			if errors.Is(cause, ErrJobCancelled) || errors.Is(cause, ErrShutdown) {
				j.cancelled(cause)
			} else {
				j.fail(fmt.Errorf("%w: %v", ErrDeadline, cause))
			}
			return
		}
		if time.Until(j.deadline) <= 0 && !errors.Is(err, errSliceExpired) {
			j.fail(fmt.Errorf("%w: %v", ErrDeadline, err))
			return
		}
		if last || !degradable(err) {
			j.fail(err)
			return
		}
		s.reg.Counter("jrpm_serve_degradations_total").Inc()
	}
}

// addTierMetrics folds a finished job's tier-2 block-engine counters into
// the server registry, unlabelled: every phase adds into the same counters,
// so /metrics exposes engine activity summed over jobs and phases (and, via
// the demotion reasons, why workloads leave the fast tier).
func (s *Server) addTierMetrics(res *core.Result) {
	for _, p := range []*core.Phase{&res.Seq, &res.Profile, &res.TLS} {
		p.Tier.FillMetrics(s.reg, "")
	}
}

// addDoctorMetrics exposes the latest diagnosed job's ledger totals as
// jrpm_doctor_* gauges: conservation health, attributed wall cycles, and
// the committed/discarded split summed over the run's STLs.
func (s *Server) addDoctorMetrics(rep *diagnose.Report) {
	s.reg.Counter("jrpm_doctor_reports_total").Inc()
	conserved := 0.0
	if rep.Conserved {
		conserved = 1
	}
	s.reg.Gauge("jrpm_doctor_conserved").Set(conserved)
	s.reg.Gauge("jrpm_doctor_wall_cycles").Set(float64(rep.WallCycles))
	s.reg.Gauge("jrpm_doctor_loops").Set(float64(len(rep.Loops)))
	var useful, discarded, total int64
	for i := range rep.Loops {
		b := &rep.Loops[i].Buckets
		useful += b.RunUsed
		discarded += b.RunViolated + b.WaitViolated
		total += rep.Loops[i].Cycles
	}
	s.reg.Gauge("jrpm_doctor_loop_cycles").Set(float64(total))
	s.reg.Gauge("jrpm_doctor_useful_cycles").Set(float64(useful))
	s.reg.Gauge("jrpm_doctor_discarded_cycles").Set(float64(discarded))
}

// finishJob publishes the terminal status to the breaker, metrics and the
// retention list. Every enqueued job passes through here exactly once (the
// worker dequeue is the single exit point, even for jobs cancelled while
// queued).
func (s *Server) finishJob(j *job) {
	v := j.snapshot()
	switch v.Status {
	case StatusDone:
		s.breakerFor(j.bkey).OnResult(true, false)
	case StatusFailed:
		s.reg.Counter("jrpm_serve_jobs_completed_total{status=\"failed\"}").Inc()
		s.breakerFor(j.bkey).OnResult(false, false)
	case StatusCancelled:
		s.reg.Counter("jrpm_serve_jobs_completed_total{status=\"cancelled\"}").Inc()
		s.breakerFor(j.bkey).OnResult(false, true)
	}
	if s.journal != nil {
		// Result bytes land before the done record: replay treats "done" as a
		// promise that GET /jobs/{id}/result still works after a crash.
		if v.Status == StatusDone {
			if w := j.wireBytes(); w != nil {
				if err := s.journal.writeResult(v.ID, w); err != nil {
					s.reg.Counter("jrpm_serve_journal_errors_total").Inc()
				}
			}
		}
		view := v
		s.journalAppend(journalRecord{Event: evDone, ID: v.ID, View: &view})
	}
	s.noteFinished(v.ID)
}

// journalAppend appends one WAL record when the server is durable, counting
// (rather than propagating) write failures: a sick disk degrades durability,
// it does not take down job execution.
func (s *Server) journalAppend(rec journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(rec); err != nil {
		s.reg.Counter("jrpm_serve_journal_errors_total").Inc()
	}
}
