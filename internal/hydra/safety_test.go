package hydra

import (
	"errors"
	"testing"

	"jrpm/internal/faultinject"
	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
)

// --- typed errors ---------------------------------------------------------

func TestOutOfRangeStoreFailsWithMemFault(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.T0, 1<<30) // far beyond MemWords
	b.Li(isa.T1, 7)
	b.Sw(isa.T1, isa.T0, 0)
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
	m := NewMachine(img, newStubRuntime(), DefaultOptions())
	err := m.Run(1_000_000)
	if err == nil {
		t.Fatal("wild store should fail the run")
	}
	var f *MemFault
	if !errors.As(err, &f) {
		t.Fatalf("error %v is not a *MemFault", err)
	}
	if f.Addr != 1<<30 || !f.Write || f.CPU != 0 || f.Cycle <= 0 {
		t.Fatalf("fault context = %+v", f)
	}
	if !errors.Is(err, mem.ErrOutOfRange) {
		t.Fatalf("MemFault should unwrap to mem.ErrOutOfRange, got %v", err)
	}
}

func TestSpeculativeOutOfRangeStoreFailsWithMemFault(t *testing.T) {
	// Every iteration stores out of range; whichever thread is (or becomes)
	// the head surfaces the fault as a typed architectural error.
	img := buildParallelSTL(16, 1<<30, 4)
	m := NewMachine(img, newStubRuntime(), DefaultOptions())
	err := m.Run(5_000_000)
	var f *MemFault
	if !errors.As(err, &f) {
		t.Fatalf("speculative wild store: error %v is not a *MemFault", err)
	}
	if !f.Write || f.Addr < 1<<30 {
		t.Fatalf("fault context = %+v", f)
	}
}

// --- wild accesses outside LW/LWNV/SW ------------------------------------

// wildRef is far beyond MemWords: every access relative to it faults.
const wildRef = 1 << 30

// wildRuntime keeps its allocator state at a wild address, so Alloc faults
// through RuntimeStore or, with gc set, asks for a collection whose
// CollectGarbage then faults the same way. Each CPU writes its own word, so
// a fault names the thread that made it. nonHeadAsks counts allocations by
// speculative non-head threads.
type wildRuntime struct {
	stubRuntime
	gc          bool
	nonHeadAsks int
}

func (w *wildRuntime) Alloc(m *Machine, cpu int, classID int64) (int64, bool) {
	if m.SpecActive() && !m.TLS.IsHead(cpu) {
		w.nonHeadAsks++
	}
	if w.gc {
		return 0, true
	}
	m.RuntimeStore(cpu, wildRef+mem.Addr(cpu), classID, ClassAlloc)
	return 0, false
}

func (w *wildRuntime) CollectGarbage(m *Machine, cpu int) {
	m.RuntimeStore(cpu, wildRef+mem.Addr(cpu), 0, ClassAlloc)
}

// wildCase is one instruction that faults when T3 holds a wild reference:
// either in its own access (CHKIDX's length word) or inside the VM runtime
// it calls. addr is the faulting address for reference ref on cpu.
type wildCase struct {
	name  string
	op    isa.Instr
	gc    bool // the fault comes from the collection the allocation asks for
	rt    func() Runtime
	addr  func(ref int64, cpu int) mem.Addr
	write bool
}

func wildCases() []wildCase {
	stub := func() Runtime { return newStubRuntime() } // locks not elided
	wild := func(gc bool) func() Runtime {
		return func() Runtime { return &wildRuntime{stubRuntime: *newStubRuntime(), gc: gc} }
	}
	lockWord := func(ref int64, _ int) mem.Addr { return mem.Addr(ref + 1) }
	perCPU := func(_ int64, cpu int) mem.Addr { return wildRef + mem.Addr(cpu) }
	return []wildCase{
		{name: "chkidx", op: isa.Instr{Op: isa.CHKIDX, Rs: isa.T3, Rt: isa.Zero}, rt: stub,
			addr: func(ref int64, _ int) mem.Addr { return mem.Addr(ref + 2) }},
		{name: "monenter", op: isa.Instr{Op: isa.MONENTER, Rs: isa.T3}, rt: stub, addr: lockWord},
		{name: "monexit", op: isa.Instr{Op: isa.MONEXIT, Rs: isa.T3}, rt: stub, addr: lockWord, write: true},
		{name: "alloc", op: isa.Instr{Op: isa.ALLOC, Rd: isa.T4, Imm: 3}, rt: wild(false), addr: perCPU, write: true},
		{name: "gc", op: isa.Instr{Op: isa.ALLOC, Rd: isa.T4, Imm: 3}, gc: true, rt: wild(true), addr: perCPU, write: true},
	}
}

// TestWildAccessFailsWithMemFault pins the serial disposition of the wild
// accesses that no LW/LWNV/SW bounds check covers: CHKIDX's length load,
// the monitor's lock word, and the runtime's own stores from Alloc and
// CollectGarbage. Each stops the run with a MemFault at the faulting
// instruction, never ErrInternal, identically with tier-2 on and off. The
// access issues at cycle 1, after the LI, and counts as the second
// instruction.
func TestWildAccessFailsWithMemFault(t *testing.T) {
	for _, tc := range wildCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := isa.NewBuilder()
			b.Li(isa.T3, wildRef)
			pc := b.Emit(tc.op)
			b.Emit(isa.Instr{Op: isa.HALT})
			img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			m := runTiered(t, img, DefaultOptions(), tc.rt, 1_000_000)
			var f *MemFault
			if !errors.As(m.Err(), &f) {
				t.Fatalf("error %v is not a *MemFault", m.Err())
			}
			want := MemFault{CPU: 0, Cycle: 1, Addr: tc.addr(wildRef, 0), Write: tc.write, Method: "main", PC: pc}
			if *f != want || m.Instructions != 2 {
				t.Fatalf("fault = %+v after %d instructions, want %+v after 2", *f, m.Instructions, want)
			}
			if !errors.Is(m.Err(), mem.ErrOutOfRange) {
				t.Fatalf("MemFault should unwrap to mem.ErrOutOfRange, got %v", m.Err())
			}
		})
	}
}

// buildWildSTL assembles a 4-CPU STL in which every iteration i executes op
// with T3 = wildRef+i. Iteration 0 spins first, so the younger threads reach
// their wild access while still speculative.
func buildWildSTL(op isa.Instr) (img *Image, accessPC int) {
	const n = 16
	b := isa.NewBuilder()
	b.Li(isa.T0, 0)
	b.Sw(isa.T0, isa.FP, 0) // i home = 0
	b.Li(isa.T0, n)
	b.Sw(isa.T0, isa.FP, 1) // limit home
	b.Emit(isa.Instr{Op: isa.STLSTART, Imm: 1})
	b.Label("init")
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T1, Imm: isa.CP2Iteration})
	b.Lw(isa.S0, isa.FP, 0)
	b.Op3(isa.ADD, isa.S0, isa.S0, isa.T1)
	b.Lw(isa.S1, isa.FP, 1)
	b.Label("top")
	b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
	b.Br(isa.BNE, isa.S0, isa.Zero, "access")
	b.Li(isa.T2, 200)
	b.Label("spin")
	b.OpImm(isa.ADDI, isa.T2, isa.T2, -1)
	b.Br(isa.BGT, isa.T2, isa.Zero, "spin")
	b.Label("access")
	b.OpImm(isa.ADDI, isa.T3, isa.S0, wildRef)
	accessPC = b.Emit(op)
	b.Emit(isa.Instr{Op: isa.STLEOI})
	b.OpImm(isa.ADDI, isa.S0, isa.S0, 4)
	b.Jmp("top")
	b.Label("shutdown")
	b.Emit(isa.Instr{Op: isa.STLSHUTDOWN})
	b.Emit(isa.Instr{Op: isa.HALT})
	img = image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
	img.STLs[1] = &STLDesc{ID: 1, Method: 0, InitPC: b.LabelPC("init"),
		BodyStart: b.LabelPC("init"), BodyEnd: b.LabelPC("shutdown") + 1}
	return img, accessPC
}

// TestSpeculativeWildAccessDefersToHead is the speculative counterpart: the
// younger threads' wild accesses park them (a deferred MemFault, or a wait
// to collect) instead of failing the run, and the fault surfaces only when
// the head makes its own access.
func TestSpeculativeWildAccessDefersToHead(t *testing.T) {
	for _, tc := range wildCases() {
		t.Run(tc.name, func(t *testing.T) {
			img, pc := buildWildSTL(tc.op)
			var errText [2]string
			var clock [2]int64
			for i, tier2Off := range []bool{false, true} {
				opts := DefaultOptions()
				opts.Tier2Off = tier2Off
				rt := tc.rt()
				m := NewMachine(img, rt, opts)
				err := m.Run(5_000_000)
				var f *MemFault
				if !errors.As(err, &f) {
					t.Fatalf("tier2Off=%v: error %v is not a *MemFault", tier2Off, err)
				}
				if f.CPU != 0 || f.Addr != tc.addr(wildRef, 0) || f.Write != tc.write || f.PC != pc {
					t.Fatalf("tier2Off=%v: fault = %+v, want the head's access at pc %d", tier2Off, *f, pc)
				}
				if tc.gc {
					// Younger threads asked for the collection and waited
					// for headship; none of them ran it.
					if asks := rt.(*wildRuntime).nonHeadAsks; asks < len(m.CPUs)-1 || m.GCRuns != 0 {
						t.Fatalf("tier2Off=%v: %d non-head allocations, %d collections", tier2Off, asks, m.GCRuns)
					}
				} else {
					for _, c := range m.CPUs[1:] {
						p := c.pendingFault
						if c.state != stateWaitException || p == nil {
							t.Fatalf("tier2Off=%v: cpu%d did not park its fault (state %d)", tier2Off, c.ID, c.state)
						}
						ref := wildRef + m.TLS.Iteration(c.ID)
						if p.CPU != c.ID || p.Addr != tc.addr(ref, c.ID) || p.Write != tc.write || p.PC != pc || p.Cycle >= f.Cycle {
							t.Fatalf("tier2Off=%v: cpu%d parked %+v; head faulted at cycle %d", tier2Off, c.ID, *p, f.Cycle)
						}
					}
				}
				errText[i], clock[i] = err.Error(), m.Clock
			}
			if errText[0] != errText[1] || clock[0] != clock[1] {
				t.Fatalf("tier-2 on/off diverge: %q at %d vs %q at %d", errText[0], clock[0], errText[1], clock[1])
			}
		})
	}
}

func TestCycleBudgetTypedError(t *testing.T) {
	b := isa.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 2})
	m := NewMachine(img, newStubRuntime(), DefaultOptions())
	if err := m.Run(10_000); !errors.Is(err, ErrCycleBudgetExceeded) {
		t.Fatalf("err = %v, want ErrCycleBudgetExceeded", err)
	}
}

func TestBadProgramTypedError(t *testing.T) {
	b := isa.NewBuilder()
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T0, Imm: 99}) // unknown cp2 register
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 2})
	m := NewMachine(img, newStubRuntime(), DefaultOptions())
	if err := m.Run(1_000_000); !errors.Is(err, ErrBadProgram) {
		t.Fatalf("err = %v, want ErrBadProgram", err)
	}
}

// panickyRuntime simulates a runtime bug: Alloc panics with a plain value.
type panickyRuntime struct{ stubRuntime }

func (p *panickyRuntime) Alloc(m *Machine, cpu int, classID int64) (int64, bool) {
	panic("runtime bug")
}

func TestRunRecoversRuntimePanicAsInternalError(t *testing.T) {
	b := isa.NewBuilder()
	b.Emit(isa.Instr{Op: isa.ALLOC, Rd: isa.T0, Imm: 3})
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 2})
	m := NewMachine(img, &panickyRuntime{stubRuntime{next: int64(HeapBase)}}, DefaultOptions())
	err := m.Run(1_000_000)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
}

// --- fault injection ------------------------------------------------------

func faultOpts(plan faultinject.Plan) Options {
	o := DefaultOptions()
	o.Faults = &plan
	return o
}

func TestSpuriousRAWFaultsKeepLoopCorrect(t *testing.T) {
	const n, base = 64, 100000
	img := buildParallelSTL(n, base, 4)
	m := NewMachine(img, newStubRuntime(), faultOpts(faultinject.Plan{Seed: 11, RAW: 0.02}))
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("run under RAW faults: %v", err)
	}
	for i := int64(0); i < n; i++ {
		if got := m.Mem.Read(mem.Addr(base + i)); got != i*i {
			t.Fatalf("arr[%d] = %d, want %d", i, got, i*i)
		}
	}
	if m.TLS.Violations == 0 {
		t.Error("injected RAW faults produced no violations")
	}
	if m.Injector().Fired()["raw"] == 0 {
		t.Error("raw channel never fired")
	}
}

func TestOverflowAndBusFaultsKeepLoopCorrect(t *testing.T) {
	const n, base = 64, 100000
	img := buildParallelSTL(n, base, 4)
	plan := faultinject.Plan{Seed: 5, Overflow: 0.2, Bus: 0.5, BusDelay: 6}
	m := NewMachine(img, newStubRuntime(), faultOpts(plan))
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("run under overflow/bus faults: %v", err)
	}
	for i := int64(0); i < n; i++ {
		if got := m.Mem.Read(mem.Addr(base + i)); got != i*i {
			t.Fatalf("arr[%d] = %d, want %d", i, got, i*i)
		}
	}
	if m.TLS.Overflows == 0 {
		t.Error("injected overflow pressure produced no overflow episodes")
	}
	base4 := run(t, buildParallelSTL(n, base, 4), DefaultOptions())
	if m.Clock <= base4.Clock {
		t.Errorf("fault run (%d cycles) not slower than clean run (%d cycles)",
			m.Clock, base4.Clock)
	}
}

func TestHeapFaultForcesGCAndCompletes(t *testing.T) {
	b := isa.NewBuilder()
	b.Emit(isa.Instr{Op: isa.ALLOC, Rd: isa.T0, Imm: 3})
	b.Lw(isa.T1, isa.T0, 0)
	b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T1})
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 2})
	m := NewMachine(img, newStubRuntime(), faultOpts(faultinject.Plan{Seed: 1, Heap: 1}))
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("run under heap faults: %v", err)
	}
	if len(m.Output) != 1 || m.Output[0] != 3 {
		t.Fatalf("output = %v, want [3]", m.Output)
	}
	if m.GCRuns == 0 {
		t.Error("injected heap exhaustion never forced a GC")
	}
}

// TestZeroFaultPlanIsCycleIdentical: installing a zero plan must not perturb
// timing at all — the acceptance criterion that lets benchmarks run with the
// flag plumbing always present.
func TestZeroFaultPlanIsCycleIdentical(t *testing.T) {
	clean := run(t, buildParallelSTL(64, 100000, 4), DefaultOptions())
	zeroed := run(t, buildParallelSTL(64, 100000, 4), faultOpts(faultinject.Plan{Seed: 99}))
	if clean.Clock != zeroed.Clock {
		t.Fatalf("zero plan changed cycles: %d vs %d", clean.Clock, zeroed.Clock)
	}
	if zeroed.Injector() != nil {
		t.Fatal("zero plan should install a nil injector")
	}
}

// TestFaultRunsAreDeterministic: the same plan twice gives identical clocks
// and identical fault counts.
func TestFaultRunsAreDeterministic(t *testing.T) {
	plan := faultinject.Plan{Seed: 21, RAW: 0.01, Overflow: 0.05, Bus: 0.2, BusDelay: 4}
	a := run(t, buildParallelSTL(64, 100000, 4), faultOpts(plan))
	b := run(t, buildParallelSTL(64, 100000, 4), faultOpts(plan))
	if a.Clock != b.Clock {
		t.Fatalf("clocks diverged: %d vs %d", a.Clock, b.Clock)
	}
	if a.Injector().FiredTotal() != b.Injector().FiredTotal() {
		t.Fatalf("fault counts diverged: %d vs %d",
			a.Injector().FiredTotal(), b.Injector().FiredTotal())
	}
}

// --- violation-storm guard and backstop -----------------------------------

func TestStormBackstopTripsOnThrashingLoop(t *testing.T) {
	img := buildSerializedSTL(40)
	opts := DefaultOptions()
	opts.StormLimit = 1 // any restart burst between commits trips it
	m := NewMachine(img, newStubRuntime(), opts)
	if err := m.Run(50_000_000); !errors.Is(err, ErrSpecViolationStorm) {
		t.Fatalf("err = %v, want ErrSpecViolationStorm", err)
	}
}

// TestGuardDecertifiesThrashingSTLAndRunCompletes is the acceptance test for
// the safety net: a pathologically serialized loop is decertified by the
// guard mid-run, the machine demotes to solo (sequential) execution, and the
// program still produces the sequential answer well inside the cycle budget.
func TestGuardDecertifiesThrashingSTLAndRunCompletes(t *testing.T) {
	const n = 120
	img := buildSerializedSTL(n)
	opts := DefaultOptions()
	opts.Guard = &tls.GuardConfig{
		Window:            8,
		BadViolationRatio: 0.5,
		BadOverflowRatio:  1.1, // overflow channel irrelevant here
		Decertify:         2,
		Backoff:           1 << 30, // never re-probe inside this test
		MaxBackoff:        1 << 30,
	}
	m := NewMachine(img, newStubRuntime(), opts)
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("guarded run failed: %v", err)
	}
	if got := m.Mem.Read(200000); got != n {
		t.Fatalf("counter = %d, want %d (solo demotion corrupted state)", got, n)
	}
	dec := m.Guard.DecertifiedLoops()
	if len(dec) != 1 {
		t.Fatalf("decertified loops = %v, want exactly one", dec)
	}
	st := m.Guard.Stats()[dec[0]]
	if st.Decerts == 0 {
		t.Fatalf("guard stats = %+v, want a decertification", st)
	}
	if m.TLS.Solo() {
		t.Error("solo mode should clear at STL shutdown")
	}

	// The guarded run must beat the unguarded thrashing run.
	un := run(t, buildSerializedSTL(n), DefaultOptions())
	if m.TLS.Violations >= un.TLS.Violations {
		t.Errorf("guard did not cut violations: %d vs %d unguarded",
			m.TLS.Violations, un.TLS.Violations)
	}
}

// TestGuardLeavesHealthyLoopAlone: an independent loop under the guard runs
// exactly as fast as without it and is never decertified.
func TestGuardLeavesHealthyLoopAlone(t *testing.T) {
	cfg := tls.DefaultGuardConfig()
	opts := DefaultOptions()
	opts.Guard = &cfg
	guarded := run(t, buildParallelSTL(64, 100000, 4), opts)
	clean := run(t, buildParallelSTL(64, 100000, 4), DefaultOptions())
	if guarded.Clock != clean.Clock {
		t.Errorf("guard perturbed a healthy loop: %d vs %d cycles",
			guarded.Clock, clean.Clock)
	}
	if dec := guarded.Guard.DecertifiedLoops(); len(dec) != 0 {
		t.Errorf("healthy loop decertified: %v", dec)
	}
}
