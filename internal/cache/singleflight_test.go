package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jrpm/internal/obs"
)

// TestCoalescingRace is the satellite coalescing test: 128 goroutines
// submit the identical key concurrently and exactly one backend execution
// happens; every caller that waits gets the same bytes.
func TestCoalescingRace(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGroup(reg)
	var executions atomic.Int64
	release := make(chan struct{})

	const callers = 128
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, _, err := g.Do(context.Background(), "job", func(ctx context.Context) ([]byte, error) {
				executions.Add(1)
				<-release // hold the flight open until every caller has joined or run
				return []byte("the result"), nil
			})
			results[i], errs[i] = val, err
		}(i)
	}
	// Let the flight finish only once all 128 callers are inside Do: each
	// has either started a flight or joined one, as the group's own
	// counters record. Callers that arrive after close(release) may start
	// fresh flights, so releasing any earlier — on a slow scheduler, while
	// most callers have not started or are still queued on the group's
	// lock — would leave the count meaningless.
	entered := func() int64 {
		return reg.Counter("jrpm_fleet_coalesce_executions_total").Value() +
			reg.Counter("jrpm_fleet_coalesce_joined_total").Value()
	}
	for entered() < callers || executions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], []byte("the result")) {
			t.Fatalf("caller %d got %q", i, results[i])
		}
	}
	// Every caller that joined before the release shares one execution;
	// stragglers that arrived after completion may have started another.
	// With the flight held open until release, joins dominate: require far
	// fewer executions than callers and assert the metric agrees.
	n := executions.Load()
	if n == 0 || n > callers/8 {
		t.Fatalf("executions = %d for %d concurrent callers", n, callers)
	}
	if v := reg.Counter("jrpm_fleet_coalesce_executions_total").Value(); v != n {
		t.Fatalf("execution metric %d != counter %d", v, n)
	}
	if v := reg.Counter("jrpm_fleet_coalesce_joined_total").Value(); v != callers-n {
		t.Fatalf("joined metric %d, want %d", v, callers-n)
	}
}

// TestCoalescingExactlyOne pins the strict case: every caller provably
// overlaps one flight, so the backend runs exactly once.
func TestCoalescingExactlyOne(t *testing.T) {
	g := NewGroup(nil)
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	// Initiator opens the flight and blocks.
	var initVal []byte
	var initErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		initVal, _, initErr = g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
			executions.Add(1)
			close(started)
			<-release
			return []byte("once"), nil
		})
	}()
	<-started

	const joiners = 127
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				executions.Add(1)
				return nil, errors.New("joiner executed")
			})
			if err != nil || !shared || string(val) != "once" {
				t.Errorf("joiner: val=%q shared=%v err=%v", val, shared, err)
			}
		}()
	}
	// Joiners enqueue against the open flight; give them a moment to call
	// Do before releasing.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	<-done

	if initErr != nil || string(initVal) != "once" {
		t.Fatalf("initiator: val=%q err=%v", initVal, initErr)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("executions = %d, want exactly 1", n)
	}
}

// TestCoalescingCancelOneCaller pins the detachment property: a caller
// abandoning its wait gets its own context error while the shared run
// keeps going and serves the remaining callers.
func TestCoalescingCancelOneCaller(t *testing.T) {
	g := NewGroup(nil)
	var executions, cancelled atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	run := func(ctx context.Context) ([]byte, error) {
		executions.Add(1)
		close(started)
		select {
		case <-release:
			return []byte("survived"), nil
		case <-ctx.Done():
			cancelled.Add(1)
			return nil, ctx.Err()
		}
	}

	initCtx, initCancel := context.WithCancel(context.Background())
	initDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(initCtx, "k", run)
		initDone <- err
	}()
	<-started

	joinDone := make(chan error, 1)
	go func() {
		val, _, err := g.Do(context.Background(), "k", run)
		if err == nil && string(val) != "survived" {
			err = fmt.Errorf("joiner got %q", val)
		}
		joinDone <- err
	}()

	// Cancel the INITIATING caller mid-flight. The run must keep going —
	// its context is detached — and the joiner must still get the result.
	time.Sleep(10 * time.Millisecond)
	initCancel()
	if err := <-initDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled initiator returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-joinDone; err != nil {
		t.Fatalf("joiner after initiator cancel: %v", err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1 (cancel must not respawn the run)", n)
	}
	if c := cancelled.Load(); c != 0 {
		t.Fatalf("shared run observed cancellation %d time(s); it must be detached", c)
	}
}

// TestFlightCompletionStartsFresh ensures a finished flight does not pin
// its result: the next caller re-executes.
func TestFlightCompletionStartsFresh(t *testing.T) {
	g := NewGroup(nil)
	var n atomic.Int64
	for i := 0; i < 3; i++ {
		val, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
			return []byte(fmt.Sprintf("run-%d", n.Add(1))), nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
		want := fmt.Sprintf("run-%d", i+1)
		if string(val) != want {
			t.Fatalf("call %d: got %q, want %q", i, val, want)
		}
	}
}
