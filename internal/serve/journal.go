// Crash durability: the append-only job journal and its checkpoint/result
// files.
//
// Layout under Config.DataDir:
//
//	jobs.journal          append-only JSON-lines WAL, fsync'd per record
//	checkpoints/job-N.ckpt latest codec checkpoint, atomic-renamed
//	results/job-N.bin     canonical result wire bytes, written before "done"
//
// The journal is the source of truth for the job state machine
// accepted → checkpointed* → done: a job is accepted once, checkpointed
// each time a safepoint snapshot lands, and done once. Every transition is
// fsync'd before it is acknowledged, so after kill -9 a replay sees every
// job the server ever accepted: terminal jobs are restored for inspection
// (their result bytes are already durable — the done record is written
// after the result file syncs), and non-terminal jobs are re-enqueued,
// resuming from their latest checkpoint when one landed. A torn final
// record (the crash happened mid-append) is ignored; the job it described
// simply replays from its previous durable state.
package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal event names, in job-lifecycle order.
const (
	evAccepted     = "accepted"
	evCheckpointed = "checkpointed"
	evDone         = "done"
)

// journalRecord is one WAL line.
type journalRecord struct {
	Event string   `json:"event"`
	ID    int64    `json:"id"`
	Spec  *JobSpec `json:"spec,omitempty"` // accepted: the validated submission
	View  *JobView `json:"view,omitempty"` // done: the terminal snapshot
}

// recoveredJob is one job's replayed state.
type recoveredJob struct {
	ID      int64
	Spec    JobSpec
	HasCkpt bool     // a checkpointed record replayed: a checkpoint file is on disk
	View    *JobView // non-nil once terminal
}

// journal is the fsync'd WAL plus its sibling files. Append is serialized;
// the checkpoint/result writers are atomic (temp + rename) and may run
// concurrently with appends.
type journal struct {
	dir string

	mu sync.Mutex
	f  *os.File
}

func journalPath(dir string) string { return filepath.Join(dir, "jobs.journal") }
func (jl *journal) checkpointPath(id int64) string {
	return filepath.Join(jl.dir, "checkpoints", fmt.Sprintf("job-%d.ckpt", id))
}
func (jl *journal) resultPath(id int64) string {
	return filepath.Join(jl.dir, "results", fmt.Sprintf("job-%d.bin", id))
}

// openJournal replays dir's WAL and opens it for appending.
func openJournal(dir string) (*journal, []*recoveredJob, error) {
	for _, d := range []string{dir, filepath.Join(dir, "checkpoints"), filepath.Join(dir, "results")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("serve: journal: %w", err)
		}
	}
	recovered, err := replayJournal(journalPath(dir))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	return &journal{dir: dir, f: f}, recovered, nil
}

// replayJournal folds the WAL into per-job states, in first-accepted order.
// A torn trailing record (partial JSON from a crash mid-append) ends the
// replay without error; anything torn mid-file is reported.
func replayJournal(path string) ([]*recoveredJob, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	defer f.Close()
	byID := make(map[int64]*recoveredJob)
	var order []int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // checkpointed specs can be large
	lastComplete := true
	for sc.Scan() {
		if !lastComplete {
			return nil, fmt.Errorf("serve: journal: torn record mid-file in %s", path)
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn tail is a crash artifact: the transition it described was
			// never acknowledged, so dropping it is the correct replay. We only
			// know it was the tail once scanning ends, so flag and keep going.
			lastComplete = false
			continue
		}
		switch rec.Event {
		case evAccepted:
			if rec.Spec == nil {
				continue
			}
			if _, ok := byID[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			byID[rec.ID] = &recoveredJob{ID: rec.ID, Spec: *rec.Spec}
		case evCheckpointed:
			if j := byID[rec.ID]; j != nil {
				j.HasCkpt = true
			}
		case evDone:
			if j := byID[rec.ID]; j != nil {
				j.View = rec.View
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	out := make([]*recoveredJob, 0, len(order))
	for _, id := range order {
		out = append(out, byID[id])
	}
	return out, nil
}

// append fsyncs one record. The record is durable when append returns nil.
func (jl *journal) append(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, err := jl.f.Write(b); err != nil {
		return err
	}
	return jl.f.Sync()
}

// close releases the WAL handle.
func (jl *journal) close() {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.f.Close()
}

// writeDurable atomically replaces path with data: temp file in the same
// directory, fsync, rename, directory fsync. A reader never observes a
// partial file; a crash leaves either the old content or the new.
func writeDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeCheckpoint durably replaces the job's checkpoint file.
func (jl *journal) writeCheckpoint(id int64, wire []byte) error {
	return writeDurable(jl.checkpointPath(id), wire)
}

// readCheckpoint loads the job's checkpoint file (nil, nil when absent).
func (jl *journal) readCheckpoint(id int64) ([]byte, error) {
	b, err := os.ReadFile(jl.checkpointPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return b, err
}

// writeResult durably writes the job's canonical result bytes. Called
// before the done record is journaled, so "done" implies the result is
// readable after any crash.
func (jl *journal) writeResult(id int64, wire []byte) error {
	return writeDurable(jl.resultPath(id), wire)
}

// readResult loads the job's result file (nil, nil when absent).
func (jl *journal) readResult(id int64) ([]byte, error) {
	b, err := os.ReadFile(jl.resultPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return b, err
}
