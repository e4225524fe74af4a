// Package serve is the embeddable Jrpm simulation service: it runs built-in
// workloads and user-submitted Jrpm-IR programs as jobs with the "always
// degrade, never die" discipline the simulator applies to speculation,
// lifted to the process boundary.
//
//   - Admission control: a bounded queue with configurable concurrency;
//     when it is full, submissions are shed with a Retry-After hint instead
//     of queuing without bound.
//   - Deadlines: every job carries a wall-clock deadline (threaded through
//     the whole pipeline as a context.Context that hydra polls on a coarse
//     cycle stride) and a simulated-cycle budget.
//   - Graceful degradation: jobs in auto mode walk the ladder full TLS →
//     profile-only → sequential VM when an attempt blows its deadline
//     slice, storms, panics or diverges. Every panic is recovered per job
//     with the stack attached to the result — never fatal to the server.
//   - Circuit breaking: a per-workload breaker with the tls.Guard's
//     exponential re-probe schedule stops a consistently failing program
//     from consuming simulation capacity.
//   - Graceful shutdown: admissions stop, running jobs drain within a grace
//     period or are cancelled, and metrics can be flushed.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jrpm/internal/diagnose"
	"jrpm/internal/faultinject"
	"jrpm/internal/obs"
)

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// Workers is the number of concurrent simulation workers (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 64). A full queue
	// sheds new submissions with ErrQueueFull.
	QueueDepth int
	// DefaultDeadline applies to jobs that do not request one (default
	// 30s). The clock starts at submission, so a job that rots in the
	// queue past its deadline is failed cheaply at dequeue instead of
	// running.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 2m).
	MaxDeadline time.Duration
	// MaxCycles is the default simulated-cycle budget per run (default
	// 2e9); a job may request less but never more.
	MaxCycles int64
	// MaxNCPU caps the simulated CPUs a job may request (default 8).
	MaxNCPU int
	// TraceCapacity is the flight-recorder ring capacity for jobs that
	// request a trace (default 1<<18 events).
	TraceCapacity int
	// MaxFinished bounds how many terminal jobs are retained for
	// inspection; the oldest are evicted first (default 1024).
	MaxFinished int
	// Tier2Off disables the tier-2 block engine on every job (results are
	// bit-identical either way; the flag exists for equivalence audits).
	Tier2Off bool
	// DataDir, when set, makes jobs crash-durable: every accepted job is
	// recorded in an fsync'd journal under this directory, running jobs
	// write periodic safepoint checkpoints, and Open replays the journal on
	// restart — re-enqueueing interrupted jobs (resuming from their latest
	// checkpoint) and restoring finished ones. Only Open honours it; New
	// builds a purely in-memory server.
	DataDir string
	// CheckpointEvery is the wall-clock period between checkpoint requests
	// on a running job (default 2s when DataDir is set; 0 without a data
	// dir, leaving only the explicit shutdown/migration checkpoint sweep).
	CheckpointEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 2_000_000_000
	}
	if c.MaxNCPU <= 0 {
		c.MaxNCPU = 8
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 1 << 18
	}
	if c.MaxFinished <= 0 {
		c.MaxFinished = 1024
	}
	if c.DataDir != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	return c
}

// Admission errors. The HTTP layer maps them to 503 + Retry-After; embedded
// callers classify them with errors.Is.
var (
	// ErrQueueFull sheds a submission because the bounded queue is at
	// capacity.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining sheds a submission because the server is shutting down
	// (or was never started).
	ErrDraining = errors.New("serve: not accepting jobs")
	// ErrCircuitOpen sheds a submission because the workload's circuit
	// breaker is open.
	ErrCircuitOpen = errors.New("serve: circuit open for this workload")
	// ErrUnknownJob reports a job id the server does not know.
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Server is the simulation service. Create with New, call Start, submit
// jobs (directly or through Handler's HTTP surface), and stop with
// Shutdown.
type Server struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	started  bool
	draining bool
	jobs     map[int64]*job
	finished []int64 // terminal job ids, oldest first, for bounded retention
	breakers map[string]*breaker
	queue    chan *job

	nextID  atomic.Int64
	running atomic.Int64
	wg      sync.WaitGroup

	journal *journal // non-nil when the server is durable (built by Open)
}

// New builds a purely in-memory server; Start must be called before
// submissions are accepted. Config.DataDir is ignored here — use Open for a
// crash-durable server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		jobs:     make(map[int64]*job),
		breakers: make(map[string]*breaker),
		queue:    make(chan *job, cfg.QueueDepth),
	}
}

// Recovery summarizes what Open replayed from the journal.
type Recovery struct {
	// Resumed counts interrupted jobs re-enqueued with a checkpoint: they
	// continue mid-simulation from their latest safepoint.
	Resumed int
	// Restarted counts interrupted jobs re-enqueued without a usable
	// checkpoint: they re-run from the program (bit-identical outcome).
	Restarted int
	// Completed counts terminal jobs restored for inspection (their views
	// and result bytes survive the crash).
	Completed int
}

// Open builds a crash-durable server rooted at cfg.DataDir: it replays the
// job journal, restores terminal jobs, and re-enqueues every job the
// previous process accepted but never finished — resuming each from its
// latest checkpoint when one landed. With an empty DataDir it degenerates
// to New. Start must still be called; recovered jobs run as soon as workers
// exist.
func Open(cfg Config) (*Server, Recovery, error) {
	s := New(cfg)
	if s.cfg.DataDir == "" {
		return s, Recovery{}, nil
	}
	jl, recovered, err := openJournal(s.cfg.DataDir)
	if err != nil {
		return nil, Recovery{}, err
	}
	s.journal = jl
	// Size the queue so every recovered job enqueues without blocking —
	// recovery happens before workers exist, so a blocking send would
	// deadlock Open.
	if pending := countPending(recovered); pending > s.cfg.QueueDepth {
		s.queue = make(chan *job, pending+s.cfg.QueueDepth)
	}
	var rec Recovery
	maxID := int64(0)
	for _, r := range recovered {
		if r.ID > maxID {
			maxID = r.ID
		}
		if r.View != nil {
			// A job the previous process force-cancelled while shutting down
			// was interrupted, not concluded: re-enqueue it like a crash
			// victim so a rolling restart finishes the work.
			if r.View.Status == StatusCancelled && r.View.Error == ErrShutdown.Error() {
				r.View = nil
			} else {
				s.restoreFinished(r)
				rec.Completed++
				continue
			}
		}
		if s.restoreInterrupted(r) {
			rec.Resumed++
		} else {
			rec.Restarted++
		}
	}
	s.nextID.Store(maxID)
	s.reg.Gauge("jrpm_serve_queue_depth").Set(float64(len(s.queue)))
	return s, rec, nil
}

// countPending counts replayed jobs that need re-enqueueing.
func countPending(recovered []*recoveredJob) int {
	n := 0
	for _, r := range recovered {
		if r.View == nil {
			n++
		}
	}
	return n
}

// restoreFinished rebuilds a terminal job from its done record and durable
// result bytes.
func (s *Server) restoreFinished(r *recoveredJob) {
	j := &job{done: make(chan struct{}), bkey: breakerKey(r.Spec)}
	j.view = *r.View
	if wire, err := s.journal.readResult(r.ID); err == nil && wire != nil {
		j.wire = wire
	}
	close(j.done)
	s.mu.Lock()
	s.jobs[r.ID] = j
	s.finished = append(s.finished, r.ID)
	s.mu.Unlock()
}

// restoreInterrupted re-enqueues a job the previous process never finished,
// attaching its latest durable checkpoint when one exists. Reports whether
// the job will resume mid-simulation (vs restart from the program).
func (s *Server) restoreInterrupted(r *recoveredJob) (resumed bool) {
	spec := r.Spec
	if r.HasCkpt {
		if wire, err := s.journal.readCheckpoint(r.ID); err == nil && len(wire) > 0 {
			spec.Checkpoint = wire
		}
	}
	j := &job{done: make(chan struct{}), bkey: breakerKey(spec)}
	now := time.Now()
	// The original deadline died with the process; a recovered job gets a
	// fresh default budget.
	deadline := time.Duration(spec.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	j.deadline = now.Add(deadline)
	j.view = JobView{
		ID:          r.ID,
		Name:        spec.Name,
		Spec:        spec,
		Status:      StatusQueued,
		SubmittedAt: now,
	}
	s.mu.Lock()
	s.jobs[r.ID] = j
	s.mu.Unlock()
	s.queue <- j // capacity guaranteed by Open
	s.reg.Counter("jrpm_serve_jobs_recovered_total").Inc()
	// view.Resumed is set by the attempt that actually restores the
	// checkpoint; a corrupt one falls back to a clean restart.
	return len(spec.Checkpoint) > 0
}

// Metrics exposes the server's registry (live; safe for concurrent reads).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.reg.Gauge("jrpm_serve_queue_depth").Set(float64(len(s.queue)))
				s.runJob(j)
			}
		}()
	}
}

// breakerKey derives the circuit-breaker key: the workload name, or a hash
// of the submitted source so resubmissions of the same program share a
// breaker.
func breakerKey(spec JobSpec) string {
	if spec.Workload != "" {
		return "workload:" + spec.Workload
	}
	h := fnv.New64a()
	io.WriteString(h, spec.Source)
	return fmt.Sprintf("src:%016x", h.Sum64())
}

// breakerFor returns (creating on first use) the breaker for a key.
func (s *Server) breakerFor(key string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		b = newBreaker(key)
		s.breakers[key] = b
	}
	return b
}

// validate normalizes and rejects a spec before it touches the queue, so
// admission errors are cheap and immediate.
func (s *Server) validate(spec *JobSpec) error {
	if (spec.Workload == "") == (spec.Source == "") {
		return errors.New("serve: exactly one of workload or source must be set")
	}
	if _, _, err := ParseMode(spec.Mode); err != nil {
		return err
	}
	if spec.NCPU < 0 || spec.NCPU > s.cfg.MaxNCPU {
		return fmt.Errorf("serve: ncpu %d out of range (1..%d)", spec.NCPU, s.cfg.MaxNCPU)
	}
	if spec.Faults != "" {
		if _, err := faultinject.Parse(spec.Faults); err != nil {
			return err
		}
	}
	if spec.testAttempt == nil {
		if _, _, err := BuildProgram(*spec); err != nil {
			return err // unknown workload or unparsable program
		}
	}
	if spec.Name == "" {
		if spec.Workload != "" {
			spec.Name = spec.Workload
		} else {
			spec.Name = "program"
		}
	}
	if spec.DeadlineMS <= 0 {
		spec.DeadlineMS = s.cfg.DefaultDeadline.Milliseconds()
	}
	if max := s.cfg.MaxDeadline.Milliseconds(); spec.DeadlineMS > max {
		spec.DeadlineMS = max
	}
	return nil
}

// Submit validates and enqueues a job, returning its queued view.
// Admission failures are classified: ErrDraining, ErrCircuitOpen and
// ErrQueueFull shed the job (503 at the HTTP layer); validation errors are
// the client's fault (400).
func (s *Server) Submit(spec JobSpec) (JobView, error) {
	if err := s.validate(&spec); err != nil {
		return JobView{}, err
	}
	key := breakerKey(spec)
	b := s.breakerFor(key)
	s.reg.Counter("jrpm_serve_jobs_submitted_total").Inc()
	if !b.Admit() {
		s.reg.Counter("jrpm_serve_jobs_shed_total{reason=\"circuit_open\"}").Inc()
		return JobView{}, fmt.Errorf("%w: %s (retry after ~%d submissions)",
			ErrCircuitOpen, key, b.RetryAfterSubmissions())
	}
	j := &job{
		done: make(chan struct{}),
		bkey: key,
	}
	if spec.Trace {
		j.ring = obs.NewRingMasked(s.cfg.TraceCapacity, obs.MaskDefault)
	}
	now := time.Now()
	j.deadline = now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	j.view = JobView{
		Name:        spec.Name,
		Spec:        spec,
		Status:      StatusQueued,
		SubmittedAt: now,
	}

	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		b.OnResult(false, true) // release a granted probe without judging it
		s.reg.Counter("jrpm_serve_jobs_shed_total{reason=\"draining\"}").Inc()
		return JobView{}, ErrDraining
	}
	j.view.ID = s.nextID.Add(1)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		b.OnResult(false, true) // ditto: queue-full is not a probe verdict
		s.reg.Counter("jrpm_serve_jobs_shed_total{reason=\"queue_full\"}").Inc()
		return JobView{}, ErrQueueFull
	}
	s.jobs[j.view.ID] = j
	s.evictLocked()
	s.mu.Unlock()
	s.reg.Gauge("jrpm_serve_queue_depth").Set(float64(len(s.queue)))
	if s.journal != nil {
		// Durability point: the job exists once this record is fsync'd. A
		// failed append is surfaced as a metric, not a shed — the job still
		// runs, it just won't survive a crash.
		if err := s.journal.append(journalRecord{Event: evAccepted, ID: j.view.ID, Spec: &spec}); err != nil {
			s.reg.Counter("jrpm_serve_journal_errors_total").Inc()
		}
	}
	return j.snapshot(), nil
}

// Checkpoint returns the latest encoded checkpoint of a job (codec
// checkpoint envelope). Available while the job runs and after it reaches a
// terminal status — a cancelled job's last checkpoint is exactly what fleet
// migration hands to the next replica.
func (s *Server) Checkpoint(id int64) ([]byte, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrUnknownJob
	}
	b := j.checkpointBytes()
	if b == nil {
		return nil, fmt.Errorf("serve: job %d has no checkpoint", id)
	}
	return b, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
// Caller holds s.mu.
func (s *Server) evictLocked() {
	for len(s.finished) > s.cfg.MaxFinished {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, id)
	}
}

// noteFinished records a terminal job for bounded retention.
func (s *Server) noteFinished(id int64) {
	s.mu.Lock()
	s.finished = append(s.finished, id)
	s.evictLocked()
	s.mu.Unlock()
}

// Job returns a snapshot of the job's current state.
func (s *Server) Job(id int64) (JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobView{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// Jobs lists known jobs in submission order (bounded by the retention
// policy).
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	out := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.Unlock()
	views := make([]JobView, len(out))
	for i, j := range out {
		views[i] = j.snapshot()
	}
	slices.SortFunc(views, func(a, b JobView) int { return cmp.Compare(a.ID, b.ID) })
	return views
}

// Breakers lists per-workload circuit-breaker states, sorted by key.
func (s *Server) Breakers() []BreakerStats {
	s.mu.Lock()
	bs := make([]*breaker, 0, len(s.breakers))
	for _, b := range s.breakers {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	out := make([]BreakerStats, len(bs))
	for i, b := range bs {
		out[i] = b.Stats()
	}
	slices.SortFunc(out, func(a, b BreakerStats) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Wait blocks until the job reaches a terminal status or ctx expires, then
// returns the final (or current) view.
func (s *Server) Wait(ctx context.Context, id int64) (JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobView{}, ErrUnknownJob
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return j.snapshot(), nil
}

// Cancel requests cancellation of a job. A queued job is cancelled
// immediately; a running job is interrupted on hydra's cancellation stride.
// Cancelling a terminal or unknown job reports false.
func (s *Server) Cancel(id int64) bool {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil || j.terminal() {
		return false
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(ErrJobCancelled)
		return true
	}
	// Still queued: mark terminal now; the worker that eventually dequeues
	// it sees a terminal job and just publishes the outcome.
	j.cancelled(ErrJobCancelled)
	return true
}

// ResultBytes returns the canonical codec encoding of a finished job's full
// core.Result. Only jobs that reached StatusDone carry one; the fleet layer
// uses these bytes for caching and the conformance suite for byte-exact
// comparison.
func (s *Server) ResultBytes(id int64) ([]byte, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrUnknownJob
	}
	if !j.terminal() {
		return nil, fmt.Errorf("serve: job %d still running; result available at completion", id)
	}
	b := j.wireBytes()
	if b == nil {
		return nil, fmt.Errorf("serve: job %d produced no result", id)
	}
	return b, nil
}

// Trace returns the job's flight-recorder events (nil ring when the job was
// not submitted with Trace).
func (s *Server) Trace(id int64) ([]obs.Event, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrUnknownJob
	}
	if j.ring == nil {
		return nil, fmt.Errorf("serve: job %d was not submitted with trace=true", id)
	}
	if !j.terminal() {
		return nil, fmt.Errorf("serve: job %d still running; trace available at completion", id)
	}
	return j.ring.Events(), nil
}

// Doctor returns the job's speculation-doctor report (jobs submitted with
// diagnose=true whose speculative rung succeeded).
func (s *Server) Doctor(id int64) (*diagnose.Report, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrUnknownJob
	}
	if !j.snapshotSpec().Diagnose {
		return nil, fmt.Errorf("serve: job %d was not submitted with diagnose=true", id)
	}
	if !j.terminal() {
		return nil, fmt.Errorf("serve: job %d still running; diagnosis available at completion", id)
	}
	rep := j.doctorReport()
	if rep == nil {
		return nil, fmt.Errorf("serve: job %d produced no diagnosis (speculative rung did not complete)", id)
	}
	return rep, nil
}

// Ready reports whether the server accepts submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.draining
}

// QueueDepth reports the current queue occupancy.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Running reports the number of jobs currently executing.
func (s *Server) Running() int64 { return s.running.Load() }

// Shutdown drains the server: admissions stop immediately (readiness goes
// false, submissions shed with ErrDraining), queued and running jobs drain
// until ctx expires, then everything still in flight is cancelled with
// ErrShutdown and the workers are joined (jobs return within hydra's
// cancellation stride). Returns the number of jobs that were force-
// cancelled; 0 means a clean drain. Idempotent calls after the first return
// immediately.
func (s *Server) Shutdown(ctx context.Context) int {
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return 0
	}
	s.draining = true
	close(s.queue) // workers exit once the backlog drains
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	forced := 0
	select {
	case <-drained:
	case <-ctx.Done():
		// Before cancelling, sweep a final checkpoint from every running job
		// so migration (or the journal) hands off the freshest safepoint
		// instead of one from the periodic schedule.
		s.sweepCheckpoints(500 * time.Millisecond)
		forced = s.forceCancelAll(ErrShutdown)
		<-drained
	}
	if s.journal != nil {
		s.journal.close()
	}
	s.reg.Gauge("jrpm_serve_queue_depth").Set(0)
	return forced
}

// sweepCheckpoints requests a checkpoint-now from every running job's
// controller and waits (bounded) for the deliveries. Best-effort: a job
// between safepoints longer than the budget just keeps its previous
// checkpoint.
func (s *Server) sweepCheckpoints(budget time.Duration) {
	s.mu.Lock()
	pending := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		pending = append(pending, j)
	}
	s.mu.Unlock()
	type wait struct {
		j    *job
		from int64
	}
	var waits []wait
	for _, j := range pending {
		if j.terminal() {
			continue
		}
		cc := j.controller()
		if cc == nil {
			continue
		}
		_, seq := cc.Latest()
		cc.Request()
		waits = append(waits, wait{j: j, from: seq})
	}
	deadline := time.Now().Add(budget)
	for _, w := range waits {
		for time.Now().Before(deadline) && !w.j.terminal() {
			if cc := w.j.controller(); cc != nil {
				if _, seq := cc.Latest(); seq > w.from {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// forceCancelAll cancels every non-terminal job and returns how many were
// hit.
func (s *Server) forceCancelAll(cause error) int {
	s.mu.Lock()
	pending := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		pending = append(pending, j)
	}
	s.mu.Unlock()
	n := 0
	for _, j := range pending {
		if j.terminal() {
			continue
		}
		n++
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel(cause)
		} else {
			j.cancelled(cause)
		}
	}
	if n > 0 {
		s.reg.Counter("jrpm_serve_jobs_force_cancelled_total").Add(int64(n))
	}
	return n
}
