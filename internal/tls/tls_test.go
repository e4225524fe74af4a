package tls

import (
	"errors"
	"testing"
	"testing/quick"

	"jrpm/internal/mem"
)

func newTestUnit(ncpu int) (*Unit, *mem.Memory) {
	m := mem.NewMemory(1 << 16)
	cs := mem.NewCacheSim(mem.DefaultCacheConfig(ncpu))
	return NewUnit(DefaultConfig(ncpu), m, cs), m
}

func TestHandlerCostsMatchTable1(t *testing.T) {
	if NewHandlers != (HandlerCosts{23, 16, 5, 6}) {
		t.Errorf("New handler costs %+v do not match Table 1", NewHandlers)
	}
	if OldHandlers != (HandlerCosts{41, 46, 14, 13}) {
		t.Errorf("Old handler costs %+v do not match Table 1", OldHandlers)
	}
}

func TestStartAssignsRoundRobin(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(7)
	for c := 0; c < 4; c++ {
		if u.Iteration(c) != int64(c) {
			t.Errorf("cpu %d iteration = %d, want %d", c, u.Iteration(c), c)
		}
	}
	if !u.IsHead(0) || u.IsHead(1) {
		t.Error("head should be iteration 0 on cpu 0")
	}
	if u.STL() != 7 {
		t.Errorf("STL id = %d", u.STL())
	}
}

func TestNestedStartErrors(t *testing.T) {
	u, _ := newTestUnit(2)
	if err := u.Start(1); err != nil {
		t.Fatalf("first Start: %v", err)
	}
	if err := u.Start(2); !errors.Is(err, ErrProtocol) {
		t.Fatalf("nested Start = %v, want ErrProtocol (one STL at a time)", err)
	}
}

func TestForwardingFromOlderThread(t *testing.T) {
	u, m := newTestUnit(4)
	m.Write(100, 5)
	u.Start(1)
	// CPU1 (iter 1) stores to addr 100 speculatively.
	u.Store(1, 100, 42)
	// CPU2 (iter 2) loads: must see the forwarded value at interproc cost.
	v, lat := u.Load(2, 100, false)
	if v != 42 {
		t.Errorf("forwarded load = %d, want 42", v)
	}
	if lat != mem.LatInterproc {
		t.Errorf("forwarded load latency = %d, want %d", lat, mem.LatInterproc)
	}
	// CPU0 (iter 0, older) must NOT see the buffered value (WAR protection).
	v, _ = u.Load(0, 100, false)
	if v != 5 {
		t.Errorf("older thread load = %d, want memory value 5", v)
	}
	// Memory itself is untouched until commit.
	if m.Read(100) != 5 {
		t.Error("speculative store leaked to memory")
	}
}

func TestNearestForwarderWins(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(1)
	u.Store(0, 200, 10) // iter 0
	u.Store(2, 200, 30) // iter 2
	v, _ := u.Load(3, 200, false)
	if v != 30 {
		t.Errorf("load by iter 3 = %d, want 30 (nearest older writer is iter 2)", v)
	}
	v, _ = u.Load(1, 200, false)
	if v != 10 {
		t.Errorf("load by iter 1 = %d, want 10", v)
	}
}

func TestRAWViolationOnExposedRead(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(1)
	// Iter 2 reads addr 300 before anyone wrote it.
	u.Load(2, 300, false)
	u.Load(3, 300, false)
	// Iter 1 now stores: iterations 2 and 3 must be violated.
	_, violated, _ := u.Store(1, 300, 9)
	if len(violated) != 2 {
		t.Fatalf("violated CPUs = %v, want cpus of iters 2,3", violated)
	}
	if u.Violations != 2 {
		t.Errorf("violation count = %d, want 2", u.Violations)
	}
	// After restart the re-read sees the forwarded value.
	v, _ := u.Load(2, 300, false)
	if v != 9 {
		t.Errorf("post-restart load = %d, want 9", v)
	}
}

func TestOwnWriteThenReadIsNotExposed(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(1)
	u.Store(2, 400, 1) // iter 2 writes first
	u.Load(2, 400, false)
	_, violated, _ := u.Store(1, 400, 7)
	if len(violated) != 0 {
		t.Errorf("read-after-own-write should not be violable, got %v", violated)
	}
}

func TestLwnvNeverViolates(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(1)
	v, _ := u.Load(3, 500, true) // lwnv
	if v != 0 {
		t.Errorf("lwnv = %d, want 0", v)
	}
	_, violated, _ := u.Store(0, 500, 1)
	if len(violated) != 0 {
		t.Errorf("lwnv read caused violation: %v", violated)
	}
	// And lwnv sees forwarded speculative data.
	v, _ = u.Load(3, 500, true)
	if v != 1 {
		t.Errorf("lwnv after store = %d, want forwarded 1", v)
	}
}

func TestCommitAdvancesHeadAndWritesMemory(t *testing.T) {
	u, m := newTestUnit(4)
	u.Start(1)
	u.Store(0, 600, 11)
	u.CommitEOI(0)
	if m.Read(600) != 11 {
		t.Error("commit did not drain store buffer to memory")
	}
	if u.Iteration(0) != 4 {
		t.Errorf("cpu0 next iteration = %d, want 4 (round robin)", u.Iteration(0))
	}
	if !u.IsHead(1) {
		t.Error("head should advance to iteration 1")
	}
	if u.Commits != 1 {
		t.Errorf("commit count = %d", u.Commits)
	}
}

func TestCommitByNonHeadErrors(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(1)
	if err := u.CommitEOI(2); !errors.Is(err, ErrProtocol) {
		t.Fatalf("non-head commit = %v, want ErrProtocol", err)
	}
}

func TestWAWOrderingAcrossCommits(t *testing.T) {
	u, m := newTestUnit(2)
	u.Start(1)
	u.Store(0, 700, 1) // iter 0
	u.Store(1, 700, 2) // iter 1
	u.CommitEOI(0)
	if m.Read(700) != 1 {
		t.Fatal("iter 0 value not committed")
	}
	u.CommitEOI(1)
	if m.Read(700) != 2 {
		t.Fatal("WAW order broken: final value must be iter 1's")
	}
}

func TestViolationDiscardsBuffer(t *testing.T) {
	u, m := newTestUnit(4)
	m.Write(800, 99)
	u.Start(1)
	u.Load(2, 801, false) // exposed read to make iter 2 violable
	u.Store(2, 800, 5)
	u.Store(1, 801, 1) // violates iter 2 (and cascades to 3)
	// Iter 2's buffered store to 800 must be gone.
	v, _ := u.Load(3, 800, false)
	if v != 99 {
		t.Errorf("discarded store still visible: %d", v)
	}
}

func TestStoreOverflowDetection(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.StoreBufferLines = 2
	m := mem.NewMemory(1 << 16)
	u := NewUnit(cfg, m, mem.NewCacheSim(mem.DefaultCacheConfig(2)))
	u.Start(1)
	u.Store(1, 0*mem.LineWords+100, 1)
	u.Store(1, 1*mem.LineWords+100, 1)
	if u.StoreOverflow(1) {
		t.Fatal("not yet overflowed")
	}
	u.Store(1, 2*mem.LineWords+100, 1)
	if !u.StoreOverflow(1) {
		t.Fatal("third distinct line must overflow a 2-line buffer")
	}
	// Same-line stores do not add pressure.
	u.Store(1, 2*mem.LineWords+101, 1)
	if u.threads[1].buf.lines() != 3 {
		t.Fatal("line counting wrong")
	}
}

func TestDrainOverflowRequiresHead(t *testing.T) {
	u, _ := newTestUnit(2)
	u.Start(1)
	if _, err := u.DrainOverflow(1); !errors.Is(err, ErrProtocol) {
		t.Fatalf("DrainOverflow on non-head = %v, want ErrProtocol", err)
	}
}

func TestDrainOverflowFlushesState(t *testing.T) {
	u, m := newTestUnit(2)
	u.Start(1)
	u.Store(0, 900, 3)
	u.Load(0, 901, false)
	u.DrainOverflow(0)
	if m.Read(900) != 3 {
		t.Error("drain did not write memory")
	}
	if u.threads[0].readWords.len() != 0 {
		t.Error("drain did not clear read tracking")
	}
	if u.Overflows != 1 {
		t.Errorf("overflow episodes = %d", u.Overflows)
	}
}

// Regression: a head thread that keeps overflowing within one attempt
// drains repeatedly, but that is ONE stall episode — the Overflows counter
// (the §6.2 adaptive-feedback signal) must not count each drain.
func TestDrainOverflowCountsEpisodesNotDrains(t *testing.T) {
	u, _ := newTestUnit(2)
	u.Start(1)
	u.Store(0, 900, 1)
	for i := 0; i < 5; i++ {
		newEpisode, err := u.DrainOverflow(0)
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if (i == 0) != newEpisode {
			t.Fatalf("drain %d: newEpisode = %v", i, newEpisode)
		}
	}
	if u.Overflows != 1 {
		t.Fatalf("Overflows = %d after 5 drains in one attempt, want 1 episode", u.Overflows)
	}
	// Committing ends the attempt; the next overflow is a fresh episode.
	if err := u.CommitEOI(0); err != nil {
		t.Fatalf("CommitEOI: %v", err)
	}
	if err := u.CommitEOI(1); err != nil {
		t.Fatalf("CommitEOI cpu1: %v", err)
	}
	// cpu0 is head again (iteration 2 of 2 CPUs).
	if _, err := u.DrainOverflow(0); err != nil {
		t.Fatalf("drain in new attempt: %v", err)
	}
	if u.Overflows != 2 {
		t.Fatalf("Overflows = %d, want 2 (second attempt opened a new episode)", u.Overflows)
	}
}

func TestStartSoloRunsSequentially(t *testing.T) {
	u, m := newTestUnit(4)
	if err := u.StartSolo(5, 2); err != nil {
		t.Fatalf("StartSolo: %v", err)
	}
	if !u.Solo() || !u.IsHead(2) {
		t.Fatal("solo head must be the starting CPU")
	}
	for c := 0; c < 4; c++ {
		if c != 2 && u.Iteration(c) != -1 {
			t.Fatalf("cpu %d has iteration %d in solo mode, want idle", c, u.Iteration(c))
		}
	}
	// Iterations advance one at a time and the head never moves.
	for iter := int64(0); iter < 3; iter++ {
		if u.Iteration(2) != iter {
			t.Fatalf("iteration = %d, want %d", u.Iteration(2), iter)
		}
		u.Store(2, 100+mem.Addr(iter), iter)
		if err := u.CommitEOI(2); err != nil {
			t.Fatalf("CommitEOI iter %d: %v", iter, err)
		}
		if !u.IsHead(2) {
			t.Fatal("solo CPU must stay head after commit")
		}
	}
	for iter := int64(0); iter < 3; iter++ {
		if m.Read(100+mem.Addr(iter)) != iter {
			t.Fatalf("iteration %d store not committed", iter)
		}
	}
	killed, err := u.Shutdown(2)
	if err != nil || len(killed) != 0 {
		t.Fatalf("solo shutdown = %v, %v (no slaves to kill)", killed, err)
	}
	if u.Solo() {
		t.Fatal("solo flag must clear at shutdown")
	}
}

func TestDemoteSoloKillsYoungerAndSequences(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(1)
	killed, err := u.DemoteSolo(0)
	if err != nil {
		t.Fatalf("DemoteSolo: %v", err)
	}
	if len(killed) != 3 {
		t.Fatalf("killed = %v, want the 3 younger threads", killed)
	}
	if !u.Solo() {
		t.Fatal("unit must be in solo mode after demotion")
	}
	if err := u.CommitEOI(0); err != nil {
		t.Fatalf("CommitEOI: %v", err)
	}
	if u.Iteration(0) != 1 {
		t.Fatalf("post-demotion iteration = %d, want 1 (sequential, not round-robin)", u.Iteration(0))
	}
	if _, err := u.DemoteSolo(1); err == nil {
		t.Fatal("DemoteSolo by non-head must error")
	}
}

func TestStoreHardCapReturnsTypedError(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.StoreBufferLines = 1 // hard cap clamps to 1024 lines
	m := mem.NewMemory(1 << 18)
	u := NewUnit(cfg, m, mem.NewCacheSim(mem.DefaultCacheConfig(2)))
	u.Start(1)
	var got error
	for i := 0; i < 1100; i++ {
		_, _, err := u.Store(1, mem.Addr(i)*mem.LineWords+100, 1)
		if err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, ErrStoreBufferOverflow) {
		t.Fatalf("runaway buffer error = %v, want ErrStoreBufferOverflow", got)
	}
}

func TestShutdownKillsYoungerThreads(t *testing.T) {
	u, m := newTestUnit(4)
	u.Start(1)
	u.Store(0, 1000, 8) // exiting head's live-out store
	u.Store(2, 1001, 5) // younger speculative work, to be discarded
	killed, err := u.Shutdown(0)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if len(killed) != 3 {
		t.Fatalf("killed = %v, want 3 slaves", killed)
	}
	if u.Active() {
		t.Error("unit still active after shutdown")
	}
	if m.Read(1000) != 8 {
		t.Error("head's final stores must commit at shutdown")
	}
	if m.Read(1001) != 0 {
		t.Error("killed thread's stores must be discarded")
	}
}

func TestStateAccountingCommitVsViolate(t *testing.T) {
	u, _ := newTestUnit(4)
	u.Start(1)
	u.ChargeAttempt(0, ChargeRun, 100)
	u.ChargeAttempt(0, ChargeWait, 10)
	u.ChargeAttempt(1, ChargeRun, 50)
	u.Load(1, 1100, false) // make iter 1 violable
	u.CommitEOI(0)
	if u.Stats.RunUsed != 100 || u.Stats.WaitUsed != 10 {
		t.Errorf("committed attempt buckets wrong: %+v", u.Stats)
	}
	u.Store(0, 1100, 1) // cpu0 now iter 4 — wait, iter 4 is younger than 1.
	// Store by iter 4 cannot violate iter 1 (older). Redo with explicit call:
	u.ViolateFrom(1)
	if u.Stats.RunViolated != 50 {
		t.Errorf("violated run cycles = %d, want 50", u.Stats.RunViolated)
	}
	// Overhead holds the startup handler (charged at Start) plus cpu0's
	// flushed EOI cost: ViolateFrom(1) discarded cpu0's new attempt
	// (iteration 4), so its pending EOI handler cost flushed too.
	want := u.Config().Handlers.Startup + u.Config().Handlers.EOI
	if u.Stats.Overhead != want {
		t.Errorf("overhead = %d, want %d", u.Stats.Overhead, want)
	}
}

func TestSerialChargingWhenInactive(t *testing.T) {
	u, _ := newTestUnit(2)
	u.ChargeAttempt(0, ChargeRun, 77)
	if u.Stats.Serial != 77 {
		t.Errorf("inactive charge should be serial, got %+v", u.Stats)
	}
}

func TestStatsTotalAndAdd(t *testing.T) {
	a := StateStats{Serial: 1, RunUsed: 2, WaitUsed: 3, Overhead: 4, RunViolated: 5, WaitViolated: 6}
	if a.Total() != 21 {
		t.Errorf("total = %d", a.Total())
	}
	b := a
	b.Add(a)
	if b.Total() != 42 {
		t.Errorf("add total = %d", b.Total())
	}
}

// Property: for any interleaving of speculative stores by distinct threads
// to one address, after committing all threads in order the memory holds the
// youngest thread's value (sequential semantics).
func TestPropertySequentialCommitOrder(t *testing.T) {
	f := func(vals [4]int64) bool {
		u, m := newTestUnit(4)
		u.Start(1)
		// Store in a scrambled CPU order; commit strictly in thread order.
		for _, c := range []int{2, 0, 3, 1} {
			u.Store(c, 50, vals[c])
		}
		for c := 0; c < 4; c++ {
			u.CommitEOI(c)
		}
		return m.Read(50) == vals[3]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a violated thread never leaks a store to memory.
func TestPropertyViolationIsolation(t *testing.T) {
	f := func(addr uint16, v int64) bool {
		u, m := newTestUnit(2)
		a := mem.Addr(addr)%1000 + 100
		u.Start(1)
		u.Load(1, a+1, false)
		u.Store(1, a, v)
		u.Store(0, a+1, 1) // violates iter 1
		u.CommitEOI(0)
		return m.Read(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvgBufferUsage(t *testing.T) {
	u, _ := newTestUnit(2)
	u.Start(1)
	u.Store(0, 100, 1)
	u.Store(0, 104, 1) // second line
	u.Load(0, 200, false)
	u.CommitEOI(0)
	st, ld := u.AvgBufferLines()
	if st != 2 || ld != 1 {
		t.Errorf("avg buffer lines = %v/%v, want 2/1", st, ld)
	}
	if u.MaxStoreLines != 2 || u.MaxLoadLines != 1 {
		t.Errorf("max lines = %d/%d", u.MaxStoreLines, u.MaxLoadLines)
	}
}

func TestResetStats(t *testing.T) {
	u, _ := newTestUnit(2)
	u.ChargeAttempt(0, ChargeRun, 5)
	u.ResetStats()
	if u.Stats.Total() != 0 || u.Commits != 0 {
		t.Error("reset incomplete")
	}
}

// TestSettleHookRunsBeforeFlush pins the pre-flush hook's contract: it runs
// for the flushed CPU before the unit reads that attempt's cycles, on a
// violation as on a commit, so cycles the hook charges land in the attempt
// being flushed.
func TestSettleHookRunsBeforeFlush(t *testing.T) {
	u, _ := newTestUnit(2)
	var settled []int
	u.SetSettle(func(cpu int) {
		settled = append(settled, cpu)
		u.ChargeAttempt(cpu, ChargeRun, 7)
	})
	u.Start(1)
	u.Load(1, 100, false) // CPU1 (iter 1) exposes a read of 100
	if _, violated, err := u.Store(0, 100, 3); err != nil || len(violated) != 1 {
		t.Fatalf("store: violated %v, err %v", violated, err)
	}
	if err := u.CommitEOI(0); err != nil {
		t.Fatal(err)
	}
	if len(settled) != 2 || settled[0] != 1 || settled[1] != 0 {
		t.Fatalf("hook ran for %v, want [1 0] (violated CPU, then the committer)", settled)
	}
	if u.Stats.RunViolated != 7 || u.Stats.RunUsed != 7 {
		t.Fatalf("stats %+v: the hook's charges must land in the flushed attempts", u.Stats)
	}
	u.SetSettle(nil)
	if err := u.CommitEOI(1); err != nil {
		t.Fatal(err)
	}
	if len(settled) != 2 {
		t.Fatalf("removed hook still ran: %v", settled)
	}
}
