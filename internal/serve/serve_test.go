package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"jrpm/internal/core"
	"jrpm/internal/tls"
)

// newTestServer builds a started server with small limits and generous
// deadlines so unit tests are deterministic.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Workers:         2,
		QueueDepth:      8,
		DefaultDeadline: 30 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// scripted builds a JobSpec whose attempts are driven by a script keyed on
// rung, bypassing the real pipeline.
func scripted(script func(rung Rung) (*core.Result, error)) JobSpec {
	return JobSpec{
		Name:        "scripted",
		Workload:    "scripted", // never resolved: testAttempt short-circuits
		testAttempt: script,
	}
}

// waitDone waits for a job to reach a terminal status. The bound is the
// longest job deadline any test sets (durableDeadline): a job cannot outlive
// its own deadline, so a slow host (the race detector) never reads as a hang.
func waitDone(t *testing.T, s *Server, id int64) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), durableDeadline)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status == StatusQueued || v.Status == StatusRunning {
		t.Fatalf("job %d not terminal after wait: %s", id, v.Status)
	}
	return v
}

func okResult() *core.Result {
	return &core.Result{OutputsMatch: true}
}

func TestLadderDegradesOnStormThenSucceeds(t *testing.T) {
	s := newTestServer(t, nil)
	v, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		if rung == RungTLS {
			return nil, fmt.Errorf("wrapped: %w", tls.ErrSpecViolationStorm)
		}
		return okResult(), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	v = waitDone(t, s, v.ID)
	if v.Status != StatusDone || v.Rung != RungProfile || !v.Degraded {
		t.Fatalf("view = %+v, want done on the profile rung, degraded", v)
	}
	if len(v.Attempts) != 1 || v.Attempts[0].Rung != RungTLS {
		t.Fatalf("attempts = %+v, want exactly the failed TLS attempt", v.Attempts)
	}
}

func TestLadderRecoversFromPanicPerRung(t *testing.T) {
	s := newTestServer(t, nil)
	v, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		if rung != RungSeq {
			panic("simulated pipeline bug on rung " + string(rung))
		}
		return okResult(), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	v = waitDone(t, s, v.ID)
	if v.Status != StatusDone || v.Rung != RungSeq {
		t.Fatalf("view = %+v, want done on the sequential rung", v)
	}
	if len(v.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want two panicked attempts", v.Attempts)
	}
	for _, a := range v.Attempts {
		if a.Panic == "" {
			t.Fatalf("attempt %+v is missing the recovered stack", a)
		}
	}
}

func TestLadderNonDegradableFailsImmediately(t *testing.T) {
	s := newTestServer(t, nil)
	attempts := 0
	v, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		attempts++
		return nil, errors.New("program throws deterministically")
	}))
	if err != nil {
		t.Fatal(err)
	}
	v = waitDone(t, s, v.ID)
	if v.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", v.Status)
	}
	if attempts != 1 {
		t.Fatalf("ran %d attempts for a non-degradable failure, want 1", attempts)
	}
}

func TestPinnedModeNeverDegrades(t *testing.T) {
	s := newTestServer(t, nil)
	v, err := s.Submit(JobSpec{
		Name: "pinned", Workload: "x", Mode: "tls",
		testAttempt: func(rung Rung) (*core.Result, error) {
			return nil, fmt.Errorf("wrapped: %w", tls.ErrSpecViolationStorm)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v = waitDone(t, s, v.ID)
	if v.Status != StatusFailed {
		t.Fatalf("pinned tls mode must fail, not degrade: %+v", v)
	}
	if len(v.Attempts) != 1 {
		t.Fatalf("attempts = %+v, want exactly one", v.Attempts)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []JobSpec{
		{},                                     // neither workload nor source
		{Workload: "BitOps", Source: "x"},      // both
		{Workload: "no-such-workload"},         // unknown workload
		{Source: "not a program"},              // unparsable source
		{Workload: "BitOps", Mode: "warp"},     // unknown mode
		{Workload: "BitOps", NCPU: 99},         // ncpu out of range
		{Workload: "BitOps", Faults: "zzz=no"}, // bad fault plan
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("case %d (%+v): expected a validation error", i, spec)
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	var s *Server
	s = newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueDepth = 2 })
	blocker := func(rung Rung) (*core.Result, error) {
		<-release
		return okResult(), nil
	}
	defer close(release)
	// 1 running + 2 queued fill the server; the 4th submission is shed.
	var ids []int64
	for i := 0; i < 3; i++ {
		v, err := s.Submit(scripted(blocker))
		if err != nil {
			// The worker may not have dequeued the first job yet, leaving
			// the queue momentarily full at 2; retry briefly.
			time.Sleep(10 * time.Millisecond)
			v, err = s.Submit(scripted(blocker))
			if err != nil {
				t.Fatalf("submission %d: %v", i, err)
			}
		}
		ids = append(ids, v.ID)
	}
	// Wait until the worker picked up a job so exactly 2 slots are taken.
	deadline := time.Now().Add(2 * time.Second)
	for s.Running() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ { // refill whatever the dequeue freed
		if _, err := s.Submit(scripted(blocker)); errors.Is(err, ErrQueueFull) {
			break
		}
	}
	if _, err := s.Submit(scripted(blocker)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	started := make(chan struct{})
	running, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		close(started)
		<-release
		return nil, context.Canceled // a real attempt observes ctx; scripted stand-in
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		t.Error("cancelled queued job must never run an attempt")
		return okResult(), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("cancelling a queued job reported false")
	}
	if !s.Cancel(running.ID) {
		t.Fatal("cancelling a running job reported false")
	}
	close(release)
	qv := waitDone(t, s, queued.ID)
	rv := waitDone(t, s, running.ID)
	if qv.Status != StatusCancelled || rv.Status != StatusCancelled {
		t.Fatalf("statuses = %s / %s, want cancelled / cancelled", qv.Status, rv.Status)
	}
	if s.Cancel(queued.ID) {
		t.Fatal("cancelling a terminal job must report false")
	}
}

func TestBreakerTripsAndReprobes(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	failing := scripted(func(rung Rung) (*core.Result, error) {
		return nil, errors.New("deterministic failure")
	})
	// breakerTrip (3) failed jobs open the circuit.
	for i := 0; i < breakerTrip; i++ {
		v, err := s.Submit(failing)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		waitDone(t, s, v.ID)
	}
	// breakerBackoff (4) submissions shed, then exactly one probe admitted.
	for i := 0; i < breakerBackoff; i++ {
		if _, err := s.Submit(failing); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("shed %d: err = %v, want ErrCircuitOpen", i, err)
		}
	}
	probe, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		return okResult(), nil
	}))
	if err != nil {
		t.Fatalf("probe submission: %v", err)
	}
	waitDone(t, s, probe.ID)
	// Successful probe recloses the circuit: submissions flow again.
	v, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) { return okResult(), nil }))
	if err != nil {
		t.Fatalf("after reclose: %v", err)
	}
	waitDone(t, s, v.ID)
	stats := s.Breakers()
	if len(stats) != 1 {
		t.Fatalf("breakers = %+v, want one key", stats)
	}
	st := stats[0]
	if st.Open || st.Trips != 1 || st.Probes != 1 || st.Recloses != 1 || st.Shed != breakerBackoff {
		t.Fatalf("breaker stats = %+v", st)
	}
}

func TestShutdownDrainsThenSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.Start()
	v, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		time.Sleep(20 * time.Millisecond)
		return okResult(), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if forced := s.Shutdown(ctx); forced != 0 {
		t.Fatalf("clean drain force-cancelled %d jobs", forced)
	}
	if s.Ready() {
		t.Fatal("server still ready after shutdown")
	}
	final, err := s.Job(v.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("drained job = %+v (%v), want done", final, err)
	}
	if _, err := s.Submit(scripted(func(Rung) (*core.Result, error) { return okResult(), nil })); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

func TestShutdownForceCancelsAfterGrace(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.Start()
	started := make(chan struct{})
	v, err := s.Submit(JobSpec{
		Name: "stuck", Workload: "x",
		testAttempt: func(rung Rung) (*core.Result, error) {
			select {
			case <-started:
			default:
				close(started)
			}
			time.Sleep(50 * time.Millisecond) // a real attempt returns on the stride
			return nil, ErrShutdown
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	forced := s.Shutdown(ctx)
	if forced != 1 {
		t.Fatalf("forced = %d, want 1", forced)
	}
	final, _ := s.Job(v.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled after forced shutdown", final.Status)
	}
}

func TestDeadlineFailsQueuedJob(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	blocker, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) {
		<-release
		return okResult(), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	// 1ms deadline expires while the job rots behind the blocker.
	doomed, err := s.Submit(JobSpec{
		Name: "doomed", Workload: "x", DeadlineMS: 1,
		testAttempt: func(rung Rung) (*core.Result, error) {
			t.Error("expired job must not attempt")
			return okResult(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	waitDone(t, s, blocker.ID)
	dv := waitDone(t, s, doomed.ID)
	if dv.Status != StatusFailed {
		t.Fatalf("status = %s, want failed on deadline", dv.Status)
	}
}

func TestRetentionEvictsOldestFinished(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxFinished = 2 })
	var ids []int64
	for i := 0; i < 5; i++ {
		v, err := s.Submit(scripted(func(rung Rung) (*core.Result, error) { return okResult(), nil }))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, v.ID)
		ids = append(ids, v.ID)
	}
	if _, err := s.Job(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job still retained: err = %v", err)
	}
	if _, err := s.Job(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	if got := len(s.Jobs()); got > 3 {
		t.Fatalf("retained %d jobs, want <= MaxFinished+in-flight", got)
	}
}
