package report

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/workloads"
)

func pick(names ...string) func(*workloads.Workload) bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return func(w *workloads.Workload) bool { return set[w.Name] }
}

// TestSuiteCallerCancellation: a context cancelled before the suite starts
// yields zero results and a SuiteError whose cause is the caller's
// cancellation, with every workload accounted as cancelled.
func TestSuiteCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	filter := pick("BitOps", "monteCarlo", "db")
	for _, runner := range []struct {
		name string
		run  func() ([]*SuiteResult, error)
	}{
		{"seq", func() ([]*SuiteResult, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			return RunSuite(ctx, core.DefaultOptions(), filter, nil)
		}},
		{"parallel", func() ([]*SuiteResult, error) {
			return RunSuite(ctx, core.DefaultOptions(), filter, nil)
		}},
	} {
		t.Run(runner.name, func(t *testing.T) {
			results, err := runner.run()
			if len(results) != 0 {
				t.Fatalf("got %d results from a cancelled suite", len(results))
			}
			var se *SuiteError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *SuiteError", err)
			}
			if se.Total != 3 || se.Cancelled != 3 || len(se.Partial) != 0 {
				t.Fatalf("SuiteError = total %d, cancelled %d, partial %d; want 3/3/0",
					se.Total, se.Cancelled, len(se.Partial))
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, must wrap context.Canceled", err)
			}
		})
	}
}

// TestSuiteFailFastPropagation: the first genuine workload failure aborts
// the suite; the error is the failure (not a cancellation artifact) and the
// rest of the queue is labelled cancelled, not silently dropped.
func TestSuiteFailFastPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real workloads")
	}
	opts := core.DefaultOptions()
	opts.MaxCycles = 5_000 // every workload blows the budget almost at once
	filter := pick("BitOps", "monteCarlo", "db", "jess")
	results, err := RunSuite(context.Background(), opts, filter, nil)
	if err == nil {
		t.Fatal("suite with an impossible cycle budget must fail")
	}
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SuiteError", err)
	}
	if se.Total != 4 {
		t.Fatalf("total = %d, want 4", se.Total)
	}
	if len(results) != len(se.Partial) {
		t.Fatalf("returned %d results but SuiteError labels %d partial", len(results), len(se.Partial))
	}
	// The primary cause must be the genuine budget failure, never the
	// fail-fast cancellation that it triggered in sibling workers.
	if !errors.Is(err, hydra.ErrCycleBudgetExceeded) {
		t.Fatalf("err = %v, want the cycle-budget failure as the cause", err)
	}
	if errors.Is(se.Err, context.Canceled) && !errors.Is(se.Err, hydra.ErrCycleBudgetExceeded) {
		t.Fatalf("primary error is a cancellation artifact: %v", se.Err)
	}
	if msg := err.Error(); !strings.Contains(msg, "partial") {
		t.Fatalf("error does not label results partial: %q", msg)
	}
}

// TestSuiteSeqFailFastSkipsRemainder: one worker walks the suite in order,
// stops at the first failure and accounts for the unstarted remainder.
func TestSuiteSeqFailFastSkipsRemainder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real workloads")
	}
	opts := core.DefaultOptions()
	opts.MaxCycles = 5_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	results, err := RunSuite(context.Background(), opts, pick("BitOps", "monteCarlo", "db"), nil)
	if err == nil {
		t.Fatal("suite must fail")
	}
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SuiteError", err)
	}
	if len(results) != 0 || se.Cancelled != 2 {
		t.Fatalf("results %d, cancelled %d; want 0 results and 2 cancelled after the first failure",
			len(results), se.Cancelled)
	}
	if !errors.Is(err, hydra.ErrCycleBudgetExceeded) {
		t.Fatalf("err = %v, want the budget failure", err)
	}
}
