package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// longLoopSource builds a jasm program whose single loop runs n iterations —
// long enough (n around a million is hundreds of milliseconds of wall time)
// for periodic checkpoints to land mid-run.
func longLoopSource(n int64) string {
	return fmt.Sprintf(`
program longloop
statics 1
method main args=0 locals=2 returns=false
    const 0
    store 1
    const 0
    store 0
  .L:
    load 0
    const %d
    if_icmpge .E
    load 1
    load 0
    const 17
    imul
    iadd
    store 1
    iinc 0 1
    goto .L
  .E:
    load 1
    print
    return
end
`, n)
}

// durableDeadline is the durability tests' job deadline. Their 1M-iteration
// job takes ~14 s under the race detector, so every leg gets the same
// generous deadline; the TLS rung's slice of it must outlast the job.
const durableDeadline = 60 * time.Second

// durableConfig is the shared config for durability tests: aggressive
// checkpointing so a sub-second job checkpoints many times.
func durableConfig(dir string) Config {
	return Config{
		Workers:         1,
		QueueDepth:      8,
		DefaultDeadline: durableDeadline,
		DataDir:         dir,
		CheckpointEvery: 10 * time.Millisecond,
	}
}

// copyTree snapshots src into dst — the on-disk state a kill -9 at this
// instant would leave behind (every file in it was written with fsync
// ordering, so the copy is a valid crash image).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

// requireTLSRung fails unless a leg's result came from the TLS rung without
// degrading: a degraded leg carries a different result, and must report
// itself as such rather than as a byte divergence.
func requireTLSRung(t *testing.T, leg string, v JobView) {
	t.Helper()
	if v.Status != StatusDone || v.Rung != RungTLS || v.Degraded {
		t.Fatalf("%s: status=%s rung=%q degraded=%v attempts=%+v err=%q",
			leg, v.Status, v.Rung, v.Degraded, v.Attempts, v.Error)
	}
}

// waitForJournalCheckpoint polls the WAL until a checkpointed record for the
// job is durable (the record is appended after the checkpoint file syncs, so
// seeing it implies the checkpoint file is complete too).
func waitForJournalCheckpoint(t *testing.T, dir string, id int64) {
	t.Helper()
	needle := []byte(fmt.Sprintf(`"event":"checkpointed","id":%d`, id))
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(journalPath(dir))
		if err == nil && bytes.Contains(b, needle) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no durable checkpoint for job %d within deadline", id)
}

// requireNoCheckpointFallback fails the test when s restarted a job from
// its program because a checkpoint was unusable. The restart is
// bit-identical, so only this counter tells it from a real resume.
func requireNoCheckpointFallback(t *testing.T, s *Server) {
	t.Helper()
	if n := s.Metrics().Counter("jrpm_serve_checkpoint_fallbacks_total").Value(); n != 0 {
		t.Fatalf("jrpm_serve_checkpoint_fallbacks_total = %d, want 0", n)
	}
}

// TestDurableCrashRecoveryResumesMidRun is the crash-durability property end
// to end: snapshot the data dir while the job is mid-run (exactly what a
// kill -9 leaves), replay it in a second server, and require the recovered
// job to resume from its checkpoint and produce wire bytes identical to the
// undisturbed run.
func TestDurableCrashRecoveryResumesMidRun(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sA, rec, err := Open(durableConfig(dirA))
	if err != nil {
		t.Fatal(err)
	}
	if rec != (Recovery{}) {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	sA.Start()
	spec := JobSpec{Name: "crashme", Source: longLoopSource(1_000_000)}
	v, err := sA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForJournalCheckpoint(t, dirA, v.ID)
	copyTree(t, dirA, dirB) // the "kill -9 now" disk image

	// Let server A finish undisturbed: its result is the reference bytes.
	requireTLSRung(t, "reference job", waitDone(t, sA, v.ID))
	refWire, err := sA.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	sA.Shutdown(ctx)
	cancel()

	// "Restart" from the crash image.
	sB, recB, err := Open(durableConfig(dirB))
	if err != nil {
		t.Fatal(err)
	}
	if recB.Resumed != 1 || recB.Restarted != 0 || recB.Completed != 0 {
		t.Fatalf("recovery = %+v, want exactly one resumed job", recB)
	}
	sB.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sB.Shutdown(ctx)
	}()
	got := waitDone(t, sB, v.ID) // same ID survives the crash
	requireTLSRung(t, "recovered job", got)
	if !got.Resumed {
		t.Fatal("recovered job did not resume from its checkpoint")
	}
	gotWire, err := sB.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatalf("recovered result diverged from undisturbed run (%d vs %d bytes)", len(gotWire), len(refWire))
	}
	requireNoCheckpointFallback(t, sA)
	requireNoCheckpointFallback(t, sB)
}

// TestDurableRestoresFinishedJobs reopens a data dir after a clean shutdown:
// terminal jobs reappear with their views and result bytes, and the ID
// sequence continues past them.
func TestDurableRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	v, err := s1.Submit(JobSpec{Name: "short", Source: longLoopSource(200)})
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, s1, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job: %+v", done)
	}
	refWire, err := s1.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s1.Shutdown(ctx)
	cancel()

	s2, rec, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed != 1 || rec.Resumed != 0 || rec.Restarted != 0 {
		t.Fatalf("recovery = %+v, want exactly one completed job", rec)
	}
	got, err := s2.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.Name != "short" {
		t.Fatalf("restored view: %+v", got)
	}
	gotWire, err := s2.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatal("restored result bytes differ from the original")
	}
	s2.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	v2, err := s2.Submit(JobSpec{Name: "next", Source: longLoopSource(200)})
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID <= v.ID {
		t.Fatalf("ID sequence regressed: new job %d after recovered %d", v2.ID, v.ID)
	}
}

// TestDurableShutdownReenqueuesForcedJobs: a job force-cancelled because the
// shutdown grace expired is interrupted work, not a conclusion — reopening
// the dir re-enqueues it (resuming from the shutdown sweep's checkpoint) and
// the finished result matches a plain in-memory run bit for bit.
func TestDurableShutdownReenqueuesForcedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	spec := JobSpec{Name: "drainme", Source: longLoopSource(1_000_000)}
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForJournalCheckpoint(t, dir, v.ID)
	// Grace already expired: the job is swept for a final checkpoint, then
	// force-cancelled.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	forced := s1.Shutdown(ctx)
	cancel()
	if forced != 1 {
		t.Fatalf("forced = %d, want 1", forced)
	}

	s2, rec, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Resumed != 1 || rec.Completed != 0 {
		t.Fatalf("recovery = %+v, want the cancelled job re-enqueued with a checkpoint", rec)
	}
	s2.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	got := waitDone(t, s2, v.ID)
	requireTLSRung(t, "recovered job", got)
	if !got.Resumed {
		t.Fatal("recovered job did not resume from its checkpoint")
	}
	gotWire, err := s2.ResultBytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Reference leg: the same spec on a plain in-memory server, with the
	// durable legs' deadline so its TLS rung gets the same slice.
	mem := newTestServer(t, func(c *Config) { c.DefaultDeadline = durableDeadline })
	rv, err := mem.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireTLSRung(t, "reference job", waitDone(t, mem, rv.ID))
	refWire, err := mem.ResultBytes(rv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWire, refWire) {
		t.Fatal("resumed-after-shutdown result diverged from a fresh run")
	}
	requireNoCheckpointFallback(t, s1)
	requireNoCheckpointFallback(t, s2)
}

// TestJournalTornTailTolerated: a partial trailing record (crash mid-append)
// is dropped silently; a torn record in the middle of the file is refused.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	whole := `{"event":"accepted","id":1,"spec":{"name":"a","workload":"BitOps"}}` + "\n"
	torn := `{"event":"done","id":1,"vi`
	if err := os.WriteFile(journalPath(dir), []byte(whole+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, recovered, err := openJournal(dir)
	if err != nil {
		t.Fatalf("torn tail should replay cleanly: %v", err)
	}
	jl.close()
	if len(recovered) != 1 || recovered[0].ID != 1 || recovered[0].View != nil {
		t.Fatalf("recovered = %+v, want job 1 still pending", recovered)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(journalPath(dir2), []byte(torn+"\n"+whole), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(dir2); err == nil {
		t.Fatal("mid-file torn record should be an error")
	}
}
