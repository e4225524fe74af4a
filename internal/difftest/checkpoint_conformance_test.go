package difftest

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/workloads"
)

// TestCheckpointConformance proves the crash-durability contract at the
// core level: for every Table 3 workload, (1) running with checkpointing
// armed at every safepoint edge perturbs nothing — the wire result is
// byte-identical to the straight run — and (2) resuming the pipeline from
// each sampled checkpoint reproduces the straight run's final clock,
// violation counts and canonical wire result exactly.
//
// By default three resume points are exercised per workload (the earliest,
// a middle and the latest checkpoint, spanning both the seq and tls
// stages when present); JRPM_CKPT_EXHAUSTIVE=1 resumes from every captured
// safepoint.
//
// Every checkpoint carries a deep copy of simulated memory (16 MiB of low
// span once the heap is in use), so the default mode never holds more than
// the three it resumes from: a first capture run counts the safepoints, and
// a second, identical one keeps the sampled ones. At most
// ckptConformanceParallel workloads run at once, whatever -parallel says.
func TestCheckpointConformance(t *testing.T) {
	exhaustive := os.Getenv("JRPM_CKPT_EXHAUSTIVE") == "1"
	ws := workloads.All()
	if testing.Short() {
		ws = ws[:8]
	}
	slots := make(chan struct{}, ckptConformanceParallel)
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			slots <- struct{}{}
			defer func() { <-slots }()
			opts := core.DefaultOptions()
			if w.HeapWords > 0 {
				opts.VM.HeapWords = w.HeapWords
			}
			ref, err := core.Run(w.Build(), opts)
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}
			refWire := codec.EncodeResult(ref)

			// Capture runs: re-arm at every delivery so a snapshot fires at
			// every safepoint edge; a small stride gives resume points even
			// in the shortest Table 3 kernels. keep selects which of the
			// delivered checkpoints (numbered from 1) to retain.
			capture := func(keep func(seq int64) bool) (n int64, kept []*core.Checkpoint) {
				cc := &core.CheckpointController{Stride: 2048}
				cc.OnCheckpoint = func(cp *core.Checkpoint, seq int64) {
					n = seq
					if keep(seq) {
						kept = append(kept, cp)
					}
					cc.Request()
				}
				copts := opts
				copts.Checkpoint = cc
				cc.Request()
				capRes, err := core.Run(w.Build(), copts)
				if err != nil {
					t.Fatalf("capture run: %v", err)
				}
				if !bytes.Equal(codec.EncodeResult(capRes), refWire) {
					t.Fatalf("checkpointing perturbed the run: wire bytes differ from straight run")
				}
				return n, kept
			}
			n, sample := capture(func(int64) bool { return exhaustive })
			if n == 0 {
				t.Fatalf("no checkpoints captured")
			}
			if !exhaustive {
				want := map[int64]bool{1: true, n/2 + 1: true, n: true}
				var again int64
				again, sample = capture(func(seq int64) bool { return want[seq] })
				if again != n {
					t.Fatalf("capture runs disagree: %d then %d checkpoints", n, again)
				}
			}
			for i, cp := range sample {
				res, err := core.ResumeTLS(w.Build(), opts, cp)
				if err != nil {
					t.Fatalf("resume %d (stage %s, clock %d): %v", i, cp.Stage, cp.Machine.Clock, err)
				}
				if res.TLS.Cycles != ref.TLS.Cycles || res.Seq.Cycles != ref.Seq.Cycles {
					t.Errorf("resume %d (stage %s, clock %d): cycles diverged: seq %d/%d tls %d/%d",
						i, cp.Stage, cp.Machine.Clock, res.Seq.Cycles, ref.Seq.Cycles, res.TLS.Cycles, ref.TLS.Cycles)
				}
				if res.TLS.Violations != ref.TLS.Violations {
					t.Errorf("resume %d (stage %s): violations diverged: %d vs %d",
						i, cp.Stage, res.TLS.Violations, ref.TLS.Violations)
				}
				if got := codec.EncodeResult(res); !bytes.Equal(got, refWire) {
					t.Errorf("resume %d (stage %s, clock %d): wire result differs from straight run (%d vs %d bytes)",
						i, cp.Stage, cp.Machine.Clock, len(got), len(refWire))
				}
			}
			if exhaustive {
				t.Logf("%s: %d safepoints resumed bit-identically", w.Name, len(sample))
			}
		})
	}
}

// ckptConformanceParallel bounds how many TestCheckpointConformance
// workloads run at once (each holds up to three checkpoints plus the
// machines of a resumed pipeline).
const ckptConformanceParallel = 2

// TestCheckpointStageCoverage asserts the capture machinery sees both
// pipeline stages on at least one workload — a conformance suite that only
// ever snapshots the sequential phase would silently under-test the TLS
// restore path (tier-2 warm state, guard state, speculation counters).
func TestCheckpointStageCoverage(t *testing.T) {
	stages := map[string]int{}
	for _, w := range workloads.All() {
		opts := core.DefaultOptions()
		if w.HeapWords > 0 {
			opts.VM.HeapWords = w.HeapWords
		}
		cc := &core.CheckpointController{}
		cc.OnCheckpoint = func(cp *core.Checkpoint, seq int64) {
			stages[cp.Stage]++
			cc.Request()
		}
		opts.Checkpoint = cc
		cc.Request()
		if _, err := core.Run(w.Build(), opts); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if stages[core.StageSeq] > 0 && stages[core.StageTLS] > 0 {
			break
		}
	}
	for _, st := range []string{core.StageSeq, core.StageTLS} {
		if stages[st] == 0 {
			t.Errorf("no %s-stage checkpoints captured across the suite", st)
		}
	}
	t.Log(func() string {
		return fmt.Sprintf("stage coverage: seq=%d tls=%d", stages[core.StageSeq], stages[core.StageTLS])
	}())
}
