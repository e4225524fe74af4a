package tls

import (
	"errors"
	"reflect"
	"testing"
)

// TestUnitStateRoundTrip: the cumulative counters an inactive unit captures
// restore into a freshly built unit exactly, and both directions refuse to
// run while an STL is active (mid-STL state is not a safepoint).
func TestUnitStateRoundTrip(t *testing.T) {
	u, _ := newTestUnit(2)
	u.ChargeAttempt(0, ChargeRun, 9)
	if err := u.Start(1); err != nil {
		t.Fatal(err)
	}
	if _, err := u.CaptureState(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("capture while active: err = %v, want ErrProtocol", err)
	}
	u.ChargeAttempt(1, ChargeRun, 4)
	u.Load(1, 100, false)
	u.Store(0, 100, 7) // violates CPU1's attempt
	u.Store(0, 104, 8)
	u.ChargeAttempt(0, ChargeRun, 11)
	if err := u.CommitEOI(0); err != nil {
		t.Fatal(err)
	}
	u.ChargeAttempt(1, ChargeWaitOverflow, 2)
	if _, err := u.DrainOverflow(1); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Shutdown(1); err != nil {
		t.Fatal(err)
	}
	st, err := u.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits != 1 || st.Violations != 1 || st.Overflows != 1 || st.Stats.Serial != 9 {
		t.Fatalf("captured %+v: want 1 commit, 1 violation, 1 overflow, serial 9", st)
	}

	fresh, _ := newTestUnit(2)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	back, err := fresh.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip changed the state:\n got %+v\nwant %+v", back, st)
	}
	store, load := fresh.AvgBufferLines()
	if wantS, wantL := u.AvgBufferLines(); store != wantS || load != wantL {
		t.Fatalf("restored buffer averages %v/%v, want %v/%v", store, load, wantS, wantL)
	}

	if err := fresh.Start(2); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(st); !errors.Is(err, ErrProtocol) {
		t.Fatalf("restore while active: err = %v, want ErrProtocol", err)
	}
}

// TestGuardStateRoundTrip: a guard's per-loop decision state, decertified
// loops included, restores into a fresh guard and captures back identically;
// a nil guard captures nothing and accepts only an empty state.
func TestGuardStateRoundTrip(t *testing.T) {
	g := NewGuard(GuardConfig{Window: 4, Decertify: 1, Backoff: 3, MaxBackoff: 12})
	feedWindow(g, 7, 0, 4) // decertified
	feedWindow(g, 3, 3, 1) // healthy, mid-streak counters
	g.OnCommit(3)
	if !g.Decertified(7) {
		t.Fatal("loop 7 should be decertified")
	}
	st := g.CaptureState()
	if len(st) != 2 || st[0].LoopID != 3 || st[1].LoopID != 7 {
		t.Fatalf("captured loops %+v, want ids [3 7] in order", st)
	}

	fresh := NewGuard(g.Config())
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if back := fresh.CaptureState(); !reflect.DeepEqual(back, st) {
		t.Fatalf("round trip changed the state:\n got %+v\nwant %+v", back, st)
	}
	if ids := fresh.DecertifiedLoops(); !reflect.DeepEqual(ids, []int64{7}) {
		t.Fatalf("restored decertified loops %v, want [7]", ids)
	}

	var none *Guard
	if none.CaptureState() != nil || len(none.DecertifiedLoops()) != 0 {
		t.Fatal("nil guard must capture no loops")
	}
	if err := none.RestoreState(nil); err != nil {
		t.Fatalf("nil guard, empty state: %v", err)
	}
	if err := none.RestoreState(st); err == nil {
		t.Fatal("nil guard accepted a state with loops")
	}
}
