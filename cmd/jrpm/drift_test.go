package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// invoke runs one jrpm invocation with captured output streams.
func invoke(t *testing.T, args ...string) (code int, out, errOut string) {
	t.Helper()
	var o, e bytes.Buffer
	stdout, stderr = &o, &e
	defer func() { stdout, stderr = os.Stdout, os.Stderr }()
	code = jrpm(context.Background(), args)
	return code, o.String(), e.String()
}

// TestRunSeqRunsOnlyTheSequentialBaseline: -seq must not run the
// profiling or speculative phase. The pinned program is the fuzzer's
// smallest seq-vs-TLS divergence (seed 5005157); the metrics show which
// phases ran, since its speculative run now prints the same answer.
func TestRunSeqRunsOnlyTheSequentialBaseline(t *testing.T) {
	code, out, errOut := invoke(t, "run", "-seq", "-metrics", "-", "testdata/resetable_inductor.jasm")
	if code != 0 || !strings.HasPrefix(out, "-46\n") {
		t.Fatalf("run -seq: exit %d, stdout %q, stderr %q; want exit 0 and -46", code, out, errOut)
	}
	for _, phase := range []string{"profile", "tls"} {
		if zero := fmt.Sprintf("jrpm_cycles_total{phase=%q} 0\n", phase); !strings.Contains(out, zero) {
			t.Errorf("run -seq ran the %s phase: metrics lack %q", phase, zero)
		}
	}
	if !strings.HasPrefix(errOut, "sequential: ") || strings.Contains(errOut, "speculative") {
		t.Errorf("run -seq: stderr %q, want only the sequential cycle count", errOut)
	}
}

// TestResetBeforeIncrementSpeculates: the seed-5005157 reproducer resets
// a resetable inductor before its increment in the same iteration, so the
// reset's value is where the current iteration starts, not the next one.
// Its speculative run must print the sequential -46.
func TestResetBeforeIncrementSpeculates(t *testing.T) {
	code, out, errOut := invoke(t, "run", "-metrics", "-", "testdata/resetable_inductor.jasm")
	if code != 0 || !strings.HasPrefix(out, "-46\n") {
		t.Fatalf("run: exit %d, stdout %q, stderr %q; want exit 0 and -46", code, out, errOut)
	}
	if strings.Contains(out, `jrpm_cycles_total{phase="tls"} 0`+"\n") || !strings.Contains(errOut, "speculative: ") {
		t.Fatalf("run did not take the TLS leg: stdout %q, stderr %q", out, errOut)
	}
}

// TestRunDeltaBlueMatchesGoldenRow: run builds workloads through the one
// loader, heap size included, so its row agrees with the golden cycles
// that bench, doctor, trace and the service report.
func TestRunDeltaBlueMatchesGoldenRow(t *testing.T) {
	raw, err := os.ReadFile("../../internal/difftest/testdata/golden_cycles.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct{ Seq, TLS int64 }
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	g := golden["deltaBlue"]
	code, out, errOut := invoke(t, "run", "deltaBlue")
	if code != 0 {
		t.Fatalf("run deltaBlue: exit %d: %s", code, errOut)
	}
	want := fmt.Sprintf("%-14s %9d %8.2fx", "deltaBlue", g.Seq, float64(g.Seq)/float64(g.TLS))
	if !strings.Contains(out, want) {
		t.Fatalf("run deltaBlue:\n%s\nwant a row starting %q", out, want)
	}
}

// TestAblationKeepsSafetyNetFlags: ablation variants derive from the bound
// options, so a fault plan that breaks every TLS recompilation (jit=1)
// reaches them all and every speculative run falls back to 1.00x, as it
// does in the tables.
func TestAblationKeepsSafetyNetFlags(t *testing.T) {
	code, out, errOut := invoke(t, "bench", "-ablate", "handlers", "-faults", "seed=1,jit=1")
	if code != 0 {
		t.Fatalf("bench -ablate handlers -faults seed=1,jit=1: exit %d: %s", code, errOut)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")[2:]
	if len(rows) != 4 {
		t.Fatalf("want 4 benchmark rows, got:\n%s", out)
	}
	for _, row := range rows {
		cells := strings.Fields(row)[1:]
		for _, c := range cells {
			if c != "1.00x" {
				t.Errorf("row %q: %s under a jit=1 plan, want 1.00x", row, c)
			}
		}
	}
}
