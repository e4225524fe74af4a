package report

import (
	"context"
	"strings"
	"testing"

	"jrpm/internal/core"
	"jrpm/internal/workloads"
)

// suiteSubset runs a small, fast subset covering all three categories and a
// Table 4 transform.
func suiteSubset(t *testing.T) []*SuiteResult {
	t.Helper()
	names := map[string]bool{"FourierTest": true, "monteCarlo": true, "decJpeg": true}
	results, err := RunSuite(context.Background(), core.DefaultOptions(), func(w *workloads.Workload) bool {
		return names[w.Name]
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("subset size = %d", len(results))
	}
	return results
}

func TestRunSuiteSubset(t *testing.T) {
	results := suiteSubset(t)
	for _, sr := range results {
		if sr.Result == nil || !sr.Result.OutputsMatch {
			t.Fatalf("%s: bad result", sr.Workload.Name)
		}
		if sr.LoopCount <= 0 || sr.MaxDepth <= 0 {
			t.Errorf("%s: loop stats missing", sr.Workload.Name)
		}
	}
	// monteCarlo carries a Table 4 transform.
	for _, sr := range results {
		if sr.Workload.Name == "monteCarlo" && sr.Transformed == nil {
			t.Error("monteCarlo transform result missing")
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	text := Table1(1000, 1100)
	for _, want := range []string{"STL_STARTUP", "23", "41", "STL_RESTART", "10.0% slower"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table1 missing %q:\n%s", want, text)
		}
	}
}

func TestTable3Rendering(t *testing.T) {
	results := suiteSubset(t)
	text := Table3(results)
	for _, want := range []string{"FourierTest", "monteCarlo", "decJpeg",
		"-- Integer --", "-- Floating point --", "-- Multimedia --", "serial%"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func TestTable4Rendering(t *testing.T) {
	results := suiteSubset(t)
	text := Table4(results)
	if !strings.Contains(text, "monteCarlo") {
		t.Error("Table4 missing the transformed workload")
	}
	if strings.Contains(text, "FourierTest") {
		t.Error("Table4 must list only transformed workloads")
	}
}

func TestFigureRenderings(t *testing.T) {
	results := suiteSubset(t)
	f8 := Figure8(results)
	if !strings.Contains(f8, "profiling") || !strings.Contains(f8, "actual") {
		t.Error("Figure8 header missing")
	}
	f9 := Figure9(results)
	if !strings.Contains(f9, "total-speedup") && !strings.Contains(f9, "speedup") {
		t.Error("Figure9 header missing")
	}
	f10 := Figure10(results)
	for _, want := range []string{"run-used", "wait-usd", "run-viol"} {
		if !strings.Contains(f10, want) {
			t.Errorf("Figure10 missing %q", want)
		}
	}
	// Figure 10 rows are percentages; each line's values must be sane.
	for _, line := range strings.Split(f10, "\n")[2:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.Contains(line, "-") && strings.Contains(line, "%") {
			// crude sanity: no negative percentages rendered
			if strings.Contains(line, " -") {
				t.Errorf("negative share in %q", line)
			}
		}
	}
}

func TestCategorySummary(t *testing.T) {
	results := suiteSubset(t)
	text := CategorySummary(results)
	for _, want := range []string{"Integer", "Floating point", "Multimedia", "benchmarks"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestRunSuiteHonorsHeapOverride(t *testing.T) {
	// deltaBlue sets HeapWords for GC pressure.
	results, err := RunSuite(context.Background(), core.DefaultOptions(), func(w *workloads.Workload) bool {
		return w.Name == "deltaBlue"
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr := results[0]
	if sr.Result.TLS.GCRuns == 0 && sr.Result.Seq.GCRuns == 0 {
		t.Error("deltaBlue's small heap should force collections")
	}
}

func TestAttributionMeasuresUsedFeatures(t *testing.T) {
	// BitOps: the resetable inductor and handler rework must both show a
	// positive contribution; unused features stay at zero.
	att, err := Attribute(workloads.ByName("BitOps"), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if att.Resetable <= 0 {
		t.Errorf("BitOps resetable attribution = %.1f%%, want > 0", att.Resetable)
	}
	if att.Overheads <= 0 {
		t.Errorf("BitOps handler-rework attribution = %.1f%%, want > 0", att.Overheads)
	}
	if att.Multilevel != 0 || att.Sync != 0 || att.VMLock != 0 {
		t.Errorf("unused features attributed: %+v", att)
	}
}

func TestAttributionManualTransform(t *testing.T) {
	att, err := Attribute(workloads.ByName("monteCarlo"), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if att.Manual <= 0 {
		t.Errorf("monteCarlo manual transform attribution = %.1f%%, want > 0", att.Manual)
	}
	if att.Sync <= 0 {
		t.Errorf("monteCarlo sync attribution = %.1f%%, want > 0", att.Sync)
	}
}

func TestTable3OptRendering(t *testing.T) {
	text, err := Table3Opt(core.DefaultOptions(), []string{"BitOps"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BitOps", "reset", "ovhds"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}
