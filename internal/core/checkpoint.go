// Checkpoint/resume support for pipeline runs.
//
// A Checkpoint is one safepoint snapshot of a snapshotable pipeline phase —
// the baseline sequential run or the speculative TLS run (the profiling run
// carries the TEST tracer, whose flat timestamp tables are not worth
// serializing). Because every phase is deterministic, a resumed pipeline
// re-runs the phases before the snapshot from scratch and restores only the
// snapshot's own phase; the final Result is bit-identical to the
// uninterrupted run's.
package core

import (
	"errors"
	"fmt"
	"sync"

	"jrpm/internal/bytecode"
	"jrpm/internal/hydra"
	"jrpm/internal/vm"
)

// Checkpoint stage labels.
const (
	StageSeq = "seq" // the plain sequential baseline phase
	StageTLS = "tls" // the speculative run
)

// ErrBadCheckpoint reports a checkpoint that cannot resume the requested
// run: wrong stage for the rung, wrong program, or incompatible options.
var ErrBadCheckpoint = errors.New("core: checkpoint does not match the requested run")

// Checkpoint is a resumable mid-phase state of a pipeline run.
type Checkpoint struct {
	Name  string // program name, advisory (the image fingerprint decides)
	Stage string // StageSeq or StageTLS: which phase the snapshot belongs to
	// Label is an opaque caller-owned tag travelling with the checkpoint
	// (the service stores its degradation-ladder rung here, so a resume
	// attempt can tell which entry point the checkpoint belongs to).
	Label   string
	Machine *hydra.MachineSnapshot
	VM      *vm.State
}

// CheckpointController connects a pipeline run to checkpoint consumers. The
// controller outlives individual phases: the pipeline attaches a
// hydra.Checkpointer for each snapshotable phase, and Request (callable from
// any goroutine, any time) arms whichever phase is live — or the next one to
// attach, if none is.
type CheckpointController struct {
	mu      sync.Mutex
	pending bool
	active  *hydra.Checkpointer
	latest  *Checkpoint
	seq     int64

	// Label is copied into every delivered Checkpoint.
	Label string
	// Stride overrides the safepoint poll stride in simulated cycles
	// (0 = hydra.CancelCheckStride).
	Stride int64
	// OnCheckpoint, when non-nil, observes each delivered checkpoint with
	// its sequence number. Called on the run goroutine at the safepoint —
	// keep it cheap or hand off.
	OnCheckpoint func(cp *Checkpoint, seq int64)
}

// Request asks the running pipeline for one checkpoint at its next
// safepoint. Requests made between snapshotable phases are carried forward;
// repeated requests collapse.
func (cc *CheckpointController) Request() {
	cc.mu.Lock()
	cc.pending = true
	a := cc.active
	cc.mu.Unlock()
	if a != nil {
		a.Request()
	}
}

// Latest returns the most recent checkpoint and its sequence number (nil, 0
// when none has been captured yet).
func (cc *CheckpointController) Latest() (*Checkpoint, int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.latest, cc.seq
}

// SetLabel updates the label stamped onto subsequent checkpoints.
func (cc *CheckpointController) SetLabel(l string) {
	cc.mu.Lock()
	cc.Label = l
	cc.mu.Unlock()
}

func (cc *CheckpointController) attach(k *hydra.Checkpointer) {
	cc.mu.Lock()
	cc.active = k
	p := cc.pending
	cc.mu.Unlock()
	if p {
		k.Request()
	}
}

func (cc *CheckpointController) detach(k *hydra.Checkpointer) {
	cc.mu.Lock()
	if cc.active == k {
		cc.active = nil
	}
	cc.mu.Unlock()
}

func (cc *CheckpointController) deliver(cp *Checkpoint) {
	cc.mu.Lock()
	cp.Label = cc.Label
	cc.latest = cp
	cc.seq++
	n := cc.seq
	cc.pending = false
	fn := cc.OnCheckpoint
	cc.mu.Unlock()
	if fn != nil {
		fn(cp, n)
	}
}

// ResumeSequential resumes a RunSequential from cp (Stage must be StageSeq).
func ResumeSequential(bp *bytecode.Program, opts Options, cp *Checkpoint) (*Result, error) {
	return resume(bp, opts, stageSeq, cp)
}

// ResumeProfile resumes a RunProfile from cp. Only the baseline leg is
// snapshotable (the profiled run carries the tracer), so Stage must be
// StageSeq; the profiling run re-executes deterministically.
func ResumeProfile(bp *bytecode.Program, opts Options, cp *Checkpoint) (*Result, error) {
	return resume(bp, opts, stageProfile, cp)
}

// ResumeTLS resumes a full Run from cp (Stage StageSeq or StageTLS). Phases
// before the snapshot's re-execute deterministically; the snapshot's phase
// continues from the safepoint.
func ResumeTLS(bp *bytecode.Program, opts Options, cp *Checkpoint) (*Result, error) {
	return resume(bp, opts, stageTLS, cp)
}

func resume(bp *bytecode.Program, opts Options, st stage, cp *Checkpoint) (*Result, error) {
	if cp == nil || cp.Machine == nil || cp.VM == nil {
		return nil, fmt.Errorf("%w: empty checkpoint", ErrBadCheckpoint)
	}
	switch cp.Stage {
	case StageSeq:
	case StageTLS:
		if st != stageTLS {
			return nil, fmt.Errorf("%w: stage %q checkpoint for a non-TLS run", ErrBadCheckpoint, cp.Stage)
		}
	default:
		return nil, fmt.Errorf("%w: unknown stage %q", ErrBadCheckpoint, cp.Stage)
	}
	if opts.Faults != nil || opts.Recorder != nil || opts.Diagnose {
		return nil, fmt.Errorf("%w: fault/recorder/diagnose runs are not snapshotable", ErrBadCheckpoint)
	}
	return run(bp, opts, st, cp)
}

// phaseStage is the checkpoint stage label of a (profile, spec) execute.
func phaseStage(spec bool) string {
	if spec {
		return StageTLS
	}
	return StageSeq
}

// at returns cp when it was taken in the given stage and nil otherwise
// (also for a nil cp).
func (cp *Checkpoint) at(stage string) *Checkpoint {
	if cp != nil && cp.Stage == stage {
		return cp
	}
	return nil
}

// checkpointSink builds the Checkpointer sink for one phase: capture the
// VM's registry alongside the machine snapshot and deliver through the
// controller. Runs on the phase's run goroutine at a safepoint, where the
// VM state is quiescent.
func checkpointSink(cc *CheckpointController, rt *vm.VM, name, stg string) func(*hydra.MachineSnapshot) {
	return func(s *hydra.MachineSnapshot) {
		vs := rt.CaptureState()
		cc.deliver(&Checkpoint{Name: name, Stage: stg, Machine: s, VM: &vs})
	}
}
