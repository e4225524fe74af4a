package difftest

// Golden Chrome-trace snapshot: one pinned program runs with the flight
// recorder attached and its exported Perfetto JSON is pinned byte-for-byte.
// The exporter is deterministic (fixed struct field order, sorted map keys,
// no wall-clock input), so any diff here means either the simulator's event
// stream or the trace encoding changed — both need review. Regenerate with
//
//	go test ./internal/difftest -run TestGoldenChromeTrace -update-golden

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/core"
	"jrpm/internal/obs"
)

// TestGoldenChromeTrace runs testdata/golden_trace.jasm, a random program
// that speculates (commits observed), so the golden file pins
// run/wait/violated spans, not an empty timeline.
func TestGoldenChromeTrace(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "golden_trace.jasm"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Parse(string(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ring := obs.NewRingMasked(1<<16, obs.MaskDefault)
	opts := core.DefaultOptions()
	opts.Recorder = ring
	res, err := core.Run(prog, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.OutputsMatch {
		t.Fatal("speculative output mismatch")
	}
	if res.TLS.Commits == 0 {
		t.Fatal("the pinned program no longer speculates; pin one with commits")
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring overflowed (%d dropped); golden trace must be complete", ring.Dropped())
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, ring.Events(), opts.NCPU, "golden"); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace has no events")
	}

	path := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("rewrote %s (%d trace events)", path, len(doc.TraceEvents))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace drifted from %s (%d bytes vs %d golden); "+
			"regenerate with -update-golden and review the diff", path, buf.Len(), len(want))
	}
}
