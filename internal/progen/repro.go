// Reproducer files: a divergence found by jrpm fuzz (or the fuzz targets)
// is written to testdata/repros/ as a self-contained JSON document holding
// the program tree, the harness configuration, the verdict and the lowered
// assembly. Loading the file and calling Recheck replays the exact run —
// the tree is the source of truth; the assembly is included for humans.
package progen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Repro is one minimized divergence, as stored on disk.
type Repro struct {
	Seed       int64       `json:"seed"`
	Divergence string      `json:"divergence"`
	Detail     string      `json:"detail,omitempty"`
	Check      CheckConfig `json:"check"`

	// Sizes of the minimized program (bytecode instructions).
	TotalInstructions  int `json:"totalInstructions"`
	KernelInstructions int `json:"kernelInstructions"`

	ShrinkSteps  int `json:"shrinkSteps"`
	ShrinkChecks int `json:"shrinkChecks"`

	Prog *Prog  `json:"prog"`
	Asm  string `json:"asm"`
}

// NewRepro packages a shrink result for writing.
func NewRepro(sr *ShrinkResult, cc CheckConfig) *Repro {
	asm, _ := Asm(sr.Prog)
	return &Repro{
		Seed:               sr.Prog.Seed,
		Divergence:         sr.Verdict.Divergence,
		Detail:             sr.Verdict.Detail,
		Check:              cc,
		TotalInstructions:  sr.Total,
		KernelInstructions: sr.Kernel,
		ShrinkSteps:        sr.Steps,
		ShrinkChecks:       sr.Checks,
		Prog:               sr.Prog,
		Asm:                asm,
	}
}

// Filename returns the deterministic file name for this reproducer.
func (r *Repro) Filename() string {
	leg := r.Divergence
	if leg == "" {
		leg = "none"
	}
	return fmt.Sprintf("repro-seed%d-%s.json", r.Seed, leg)
}

// Write stores the reproducer under dir, creating it if needed, and returns
// the file path.
func (r *Repro) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Filename())
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro reads a reproducer file.
func LoadRepro(path string) (*Repro, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Repro{}
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("progen: %s: %w", path, err)
	}
	if r.Prog == nil {
		return nil, fmt.Errorf("progen: %s: no program tree", path)
	}
	return r, nil
}

// Recheck replays the stored program under the stored harness
// configuration.
func (r *Repro) Recheck() *Verdict {
	return Check(r.Prog, r.Check)
}
