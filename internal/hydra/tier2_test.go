package hydra

import (
	"context"
	"fmt"
	"testing"

	"jrpm/internal/isa"
	"jrpm/internal/mem"
)

// gcOnceRuntime forces one real GC quiesce: the first allocation reports
// gcNeeded, the machine parks the CPU and runs the collector, then the
// retry succeeds through the embedded stub.
type gcOnceRuntime struct {
	*stubRuntime
	forced bool
}

func (g *gcOnceRuntime) Alloc(m *Machine, cpu int, classID int64) (int64, bool) {
	if !g.forced {
		g.forced = true
		return 0, true
	}
	return g.stubRuntime.Alloc(m, cpu, classID)
}

// runTiered executes the same image twice — tier-2 on and off — under
// identical options and asserts every architectural observable matches:
// clock, instruction count, output, GC runs, the error (or its absence), the
// TLS unit's Figure 10 accounting and event counts, the per-loop overflow
// episodes, and every CPU's final registers, pc, method, state and readyAt.
// It returns the tier-on machine for demotion-counter assertions.
func runTiered(t *testing.T, img *Image, opts Options, rt func() Runtime, maxCycles int64) *Machine {
	t.Helper()
	if rt == nil {
		rt = func() Runtime { return newStubRuntime() }
	}
	on := NewMachine(img, rt(), opts)
	errOn := on.Run(maxCycles)

	offOpts := opts
	offOpts.Tier2Off = true
	off := NewMachine(img, rt(), offOpts)
	errOff := off.Run(maxCycles)

	if on.t2 == nil {
		t.Fatal("tier-2 engine not attached to the tier-on machine")
	}
	if off.t2 != nil {
		t.Fatal("tier-2 engine attached despite Tier2Off")
	}
	if (errOn == nil) != (errOff == nil) {
		t.Fatalf("error divergence: tier-on %v, tier-off %v", errOn, errOff)
	}
	if errOn != nil && errOn.Error() != errOff.Error() {
		t.Fatalf("error text divergence:\n  tier-on:  %v\n  tier-off: %v", errOn, errOff)
	}
	if on.Clock != off.Clock {
		t.Fatalf("clock divergence: tier-on %d, tier-off %d", on.Clock, off.Clock)
	}
	if on.Instructions != off.Instructions {
		t.Fatalf("instruction divergence: tier-on %d, tier-off %d", on.Instructions, off.Instructions)
	}
	if len(on.Output) != len(off.Output) {
		t.Fatalf("output length divergence: %v vs %v", on.Output, off.Output)
	}
	for i := range on.Output {
		if on.Output[i] != off.Output[i] {
			t.Fatalf("output divergence at %d: %v vs %v", i, on.Output, off.Output)
		}
	}
	if on.GCRuns != off.GCRuns {
		t.Fatalf("GC divergence: tier-on %d runs, tier-off %d", on.GCRuns, off.GCRuns)
	}
	if on.TLS.Stats != off.TLS.Stats {
		t.Fatalf("TLS.Stats divergence:\n  tier-on:  %+v\n  tier-off: %+v", on.TLS.Stats, off.TLS.Stats)
	}
	if on.TLS.Commits != off.TLS.Commits || on.TLS.Violations != off.TLS.Violations || on.TLS.Overflows != off.TLS.Overflows {
		t.Fatalf("TLS event divergence: commits %d/%d, violations %d/%d, overflows %d/%d",
			on.TLS.Commits, off.TLS.Commits, on.TLS.Violations, off.TLS.Violations, on.TLS.Overflows, off.TLS.Overflows)
	}
	if fmt.Sprint(on.OverflowBySTL) != fmt.Sprint(off.OverflowBySTL) {
		t.Fatalf("OverflowBySTL divergence: %v vs %v", on.OverflowBySTL, off.OverflowBySTL)
	}
	for i, c := range on.CPUs {
		o := off.CPUs[i]
		if c.Regs != o.Regs || c.PC != o.PC || c.MethodID != o.MethodID || c.state != o.state || c.readyAt != o.readyAt {
			t.Fatalf("cpu%d divergence:\n  tier-on:  pc %d method %d state %d readyAt %d regs %v\n  tier-off: pc %d method %d state %d readyAt %d regs %v",
				i, c.PC, c.MethodID, c.state, c.readyAt, c.Regs, o.PC, o.MethodID, o.state, o.readyAt, o.Regs)
		}
	}
	return on
}

// TestTier2DemotionMatrix drives one workload per demotion reason through
// both tiers and asserts (a) bit-identical results and (b) that the engine
// actually demoted for the expected reason — proving the interpreter, not a
// fused block, executed every speculation boundary, trap, data fault, GC
// quiesce, and cancellation poll edge.
func TestTier2DemotionMatrix(t *testing.T) {
	type tcase struct {
		name      string
		img       func() *Image
		opts      func() Options
		rt        func() Runtime
		maxCycles int64
		reason    DemoteReason
		wantErr   bool
		check     func(t *testing.T, m *Machine)
	}
	cases := []tcase{
		{
			// Every STL marker interprets; tier-2 covers only the serial
			// prologue/epilogue around the speculative region.
			name:   "spec/stl-loop",
			img:    func() *Image { return buildParallelSTL(64, 100000, 4) },
			reason: DemoteSpec,
			check: func(t *testing.T, m *Machine) {
				for i := int64(0); i < 64; i++ {
					if got := m.Mem.Read(mem.Addr(100000 + i)); got != i*i {
						t.Fatalf("arr[%d] = %d, want %d", i, got, i*i)
					}
				}
				if m.Tier.Promotions == 0 {
					t.Error("serial prologue should have promoted into tier-2")
				}
			},
		},
		{
			name: "call/ret",
			img: func() *Image {
				cb := isa.NewBuilder()
				cb.Op3(isa.ADD, isa.V0, isa.A0, isa.A1)
				cb.Emit(isa.Instr{Op: isa.RET})
				callee := &Method{Name: "add", Code: cb.Finish(), FrameWords: 2}
				b := isa.NewBuilder()
				b.Li(isa.A0, 30)
				b.Li(isa.A1, 12)
				b.Call(1)
				b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.V0})
				b.Emit(isa.Instr{Op: isa.HALT})
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4}, callee)
			},
			reason: DemoteCall,
			check: func(t *testing.T, m *Machine) {
				if len(m.Output) != 1 || m.Output[0] != 42 {
					t.Fatalf("output = %v, want [42]", m.Output)
				}
			},
		},
		{
			// A real quiesce: the first allocation reports gcNeeded, the
			// machine parks and collects, then retries.
			name: "gc/alloc-quiesce",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, 3)
				b.Emit(isa.Instr{Op: isa.ALLOC, Rd: isa.T1, Rs: isa.T0, Imm: 0})
				b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T1})
				b.Emit(isa.Instr{Op: isa.HALT})
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			},
			rt:     func() Runtime { return &gcOnceRuntime{stubRuntime: newStubRuntime()} },
			reason: DemoteGC,
			check: func(t *testing.T, m *Machine) {
				if m.GCRuns != 1 {
					t.Fatalf("GCRuns = %d, want 1", m.GCRuns)
				}
			},
		},
		{
			// DIV by zero with a catch handler: the trapping instruction
			// must divert before any side effect and run the interpreter's
			// full disposition path.
			name: "trap/div-zero-caught",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, 5)
				b.Li(isa.T1, 0)
				b.Op3(isa.DIV, isa.T2, isa.T0, isa.T1)
				b.Emit(isa.Instr{Op: isa.HALT}) // skipped
				b.Label("handler")
				b.Li(isa.T3, 77)
				b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T3})
				b.Emit(isa.Instr{Op: isa.HALT})
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4,
					Handlers: []Handler{{Start: 0, End: 4, Target: 4, Kind: isa.ExArithmetic}}})
			},
			reason: DemoteTrap,
			check: func(t *testing.T, m *Machine) {
				if len(m.Output) != 1 || m.Output[0] != 77 {
					t.Fatalf("handler output = %v, want [77]", m.Output)
				}
			},
		},
		{
			// A store far beyond the memory: the data fault must carry the
			// interpreter's exact error, cycle count included.
			name: "fault/wild-store",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, 1<<30)
				b.Li(isa.T1, 7)
				b.Sw(isa.T1, isa.T0, 0)
				b.Emit(isa.Instr{Op: isa.HALT})
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			},
			reason:  DemoteFault,
			wantErr: true,
		},
		{
			// A budget small enough to land inside a block's worst-case
			// span: the engine must single-step so the watchdog fires at
			// the interpreter's exact cycle.
			name: "budget/watchdog",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, 0)
				b.Label("spin")
				b.OpImm(isa.ADDI, isa.T0, isa.T0, 1)
				b.Jmp("spin")
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			},
			maxCycles: 10_001,
			reason:    DemoteBudget,
			wantErr:   true,
		},
		{
			// A live (never-fired) cancellable context forces a Done poll
			// every CancelCheckStride cycles; blocks near the poll edge
			// must single-step so the poll lands at the interpreter's
			// cycle.
			name: "cancel/poll-stride",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, 0)
				b.Li(isa.T2, 50_000) // crosses several stride checks
				b.Label("loop")
				// The memory ops give the block a worst-case span of
				// ~100 cycles, so block boundaries land inside the
				// poll-edge guard window on every stride crossing.
				b.Sw(isa.T0, isa.FP, 2)
				b.Lw(isa.T1, isa.FP, 2)
				b.OpImm(isa.ADDI, isa.T0, isa.T0, 1)
				b.Br(isa.BLT, isa.T0, isa.T2, "loop")
				b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T0})
				b.Emit(isa.Instr{Op: isa.HALT})
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
			},
			opts: func() Options {
				ctx, cancel := context.WithCancel(context.Background())
				t.Cleanup(cancel)
				o := DefaultOptions()
				o.Ctx = ctx
				return o
			},
			reason: DemoteCancel,
			check: func(t *testing.T, m *Machine) {
				if len(m.Output) != 1 || m.Output[0] != 50_000 {
					t.Fatalf("output = %v, want [50000]", m.Output)
				}
			},
		},
		{
			name: "io/output",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, 9)
				b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T0})
				b.Emit(isa.Instr{Op: isa.HALT})
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			},
			reason: DemoteIO,
		},
		{
			name: "runtime/monitor",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, int64(HeapBase)+64)
				b.Emit(isa.Instr{Op: isa.MONENTER, Rs: isa.T0})
				b.Emit(isa.Instr{Op: isa.MONEXIT, Rs: isa.T0})
				b.Emit(isa.Instr{Op: isa.HALT})
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			},
			reason: DemoteRuntime,
		},
		{
			// Code that falls off the end of the method: the interpreter
			// owns the bad-program failure path.
			name: "badpc/run-off-end",
			img: func() *Image {
				b := isa.NewBuilder()
				b.Li(isa.T0, 1)
				return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			},
			reason:  DemoteBadPC,
			wantErr: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			if tc.opts != nil {
				opts = tc.opts()
			}
			maxC := tc.maxCycles
			if maxC == 0 {
				maxC = 50_000_000
			}
			img := tc.img()
			on := NewMachine(img, runtimeOrStub(tc.rt), opts)
			errOn := on.Run(maxC)
			if tc.wantErr != (errOn != nil) {
				t.Fatalf("tier-on err = %v, wantErr=%v", errOn, tc.wantErr)
			}
			if on.Tier.Demote[tc.reason] == 0 {
				t.Errorf("Demote[%s] = 0, want > 0 (stats: %+v)", tc.reason, on.Tier)
			}
			// Full equivalence run (fresh machines, both tiers).
			m := runTiered(t, tc.img(), opts, tc.rt, maxC)
			if tc.check != nil {
				tc.check(t, m)
			}
		})
	}
}

func runtimeOrStub(rt func() Runtime) Runtime {
	if rt == nil {
		return newStubRuntime()
	}
	return rt()
}

// TestTier2SwitchMarkersNeverFuse pins the static guarantee behind the
// demotion matrix's spec row: the multilevel switch-in/switch-out markers
// (and the other STL ops) are boundary blocks, never members of a fused
// block, so every speculation transition executes in the interpreter.
func TestTier2SwitchMarkersNeverFuse(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.T0, 1)
	b.Emit(isa.Instr{Op: isa.STLSWSTART, Imm: 1})
	b.OpImm(isa.ADDI, isa.T0, isa.T0, 1)
	b.Emit(isa.Instr{Op: isa.STLSWEND})
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})

	layout := BlockLayout(img, 0)
	byPC := map[int]BlockInfo{}
	for _, bi := range layout {
		byPC[bi.EntryPC] = bi
	}
	for _, pc := range []int{1, 3} { // STLSWSTART, STLSWEND
		bi, ok := byPC[pc]
		if !ok {
			t.Fatalf("pc %d: absorbed into another block: %+v", pc, layout)
		}
		if bi.Boundary != "spec" {
			t.Errorf("pc %d: boundary = %q, want \"spec\"", pc, bi.Boundary)
		}
	}
	if byPC[4].Boundary != "runtime" { // HALT
		t.Errorf("HALT boundary = %q, want \"runtime\"", byPC[4].Boundary)
	}
}

// TestTier2DispatchZeroAlloc proves steady-state tier-2 dispatch allocates
// nothing: growing a loop by 300k extra instructions must not change the
// per-run allocation count. (Machine construction allocates identically in
// both configurations and cancels out of the comparison.)
func TestTier2DispatchZeroAlloc(t *testing.T) {
	build := func(n int64) *Image {
		b := isa.NewBuilder()
		b.Li(isa.T0, 0)
		b.Li(isa.T2, n)
		b.Label("loop")
		b.Sw(isa.T0, isa.FP, 2) // fused mem ops stay on the zero-alloc path
		b.Lw(isa.T1, isa.FP, 2)
		b.Op3(isa.ADD, isa.T1, isa.T1, isa.T0)
		b.OpImm(isa.ADDI, isa.T0, isa.T0, 1)
		b.Br(isa.BLT, isa.T0, isa.T2, "loop")
		b.Emit(isa.Instr{Op: isa.HALT})
		return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
	}
	measure := func(n int64) float64 {
		img := build(n)
		return testing.AllocsPerRun(3, func() {
			m := NewMachine(img, newStubRuntime(), DefaultOptions())
			if err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if m.t2 == nil || m.Tier.Promotions == 0 {
				t.Fatal("tier-2 did not engage")
			}
			m.Release()
		})
	}
	small, big := measure(1_000), measure(61_000)
	// 60k extra iterations × 5 instructions each; allow a couple of stray
	// allocations (GC emptying the tier-2 compile pool mid-run).
	if big > small+3 {
		t.Fatalf("dispatch allocates: %.0f allocs at 1k iterations vs %.0f at 61k", small, big)
	}
}
