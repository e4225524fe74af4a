package litmus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Counterexample is a replayable divergence record: the test, the exact
// schedule (CPU id per step) that exposed it, the oracle check that fired,
// and a rendered timeline for humans. Persisted as JSON under
// internal/tls/testdata/litmus/ (regression pins) and by jrpm litmus -out.
type Counterexample struct {
	Version  int    `json:"version"`
	Check    string `json:"check"`
	Detail   string `json:"detail"`
	Test     Test   `json:"test"`
	Schedule []int  `json:"schedule"`
	Timeline string `json:"timeline,omitempty"`
}

// PinnedCase is a counterexample checked into testdata: ExpectDiverge=false
// pins a fixed protocol bug (replay must now be clean; Check/Detail document
// what used to fail), ExpectDiverge=true pins an oracle self-test (a Chaos
// configuration the checker must still be able to catch).
type PinnedCase struct {
	Counterexample
	ExpectDiverge bool   `json:"expect_diverge"`
	Note          string `json:"note,omitempty"`
}

// WriteCounterexample persists ce as indented JSON.
func WriteCounterexample(path string, ce *Counterexample) error {
	data, err := json.MarshalIndent(ce, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPinnedCase loads one testdata case.
func ReadPinnedCase(path string) (*PinnedCase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pc PinnedCase
	if err := json.Unmarshal(data, &pc); err != nil {
		return nil, fmt.Errorf("litmus: %s: %w", path, err)
	}
	return &pc, nil
}

// WritePinnedCase persists a testdata case.
func WritePinnedCase(path string, pc *PinnedCase) error {
	data, err := json.MarshalIndent(pc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ListPinnedCases returns the sorted .json case paths under dir.
func ListPinnedCases(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// CheckPinnedCase replays one pinned case against the live unit and reports
// whether the outcome matches its expectation; the returned string describes
// any mismatch.
func CheckPinnedCase(pc *PinnedCase, opt Options) (bool, string) {
	ce, err := Replay(&pc.Test, pc.Schedule, opt)
	if err != nil {
		return false, fmt.Sprintf("invalid pinned test: %v", err)
	}
	if pc.ExpectDiverge {
		if ce == nil {
			return false, fmt.Sprintf("expected %s divergence, replay was clean", pc.Check)
		}
		if ce.Check != pc.Check {
			return false, fmt.Sprintf("expected %s divergence, got %s: %s", pc.Check, ce.Check, ce.Detail)
		}
		return true, ""
	}
	if ce != nil {
		return false, fmt.Sprintf("pinned regression reproduced %s: %s\n%s", ce.Check, ce.Detail, ce.Timeline)
	}
	return true, ""
}
