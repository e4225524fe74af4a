package hydra

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"jrpm/internal/isa"
	"jrpm/internal/tls"
)

// specLoop describes a hand-built STL for the event-driven scheduler's
// exactness cases. Every iteration opens with a register-only stretch whose
// length varies with the iteration (so CPUs reach STL_EOI at different
// times and sleep there), then the exit check, then an optional early read
// and late write of a shared counter (so older iterations violate younger
// ones while those run stretches or sleep). Iteration `at` can also allocate
// (allocAt), throw an uncaught exception (throwAt) or switch into an inner
// STL of `inner` iterations (switchAt); -1 disables each.
type specLoop struct {
	n, ncpu  int64
	busy     int // register-only instructions around the shared counter
	shared   bool
	allocAt  int64
	throwAt  int64
	switchAt int64
	inner    int64
}

const (
	specCounter = 200000
	specArr     = 100000
	specInner   = 150000
)

func newSpecLoop(n, ncpu int64) specLoop {
	return specLoop{n: n, ncpu: ncpu, busy: 6, allocAt: -1, throwAt: -1, switchAt: -1}
}

// busyWork emits k register-only instructions that mix s0 into t3/t4.
func busyWork(b *isa.Builder, k int) {
	for i := 0; i < k; i++ {
		switch i % 3 {
		case 0:
			b.Op3(isa.ADD, isa.T3, isa.T3, isa.S0)
		case 1:
			b.Op3(isa.MUL, isa.T4, isa.T3, isa.S0)
		default:
			b.Op3(isa.XOR, isa.T3, isa.T3, isa.T4)
		}
	}
}

// spinByIteration emits a register-only loop of (s0&3)*4 turns: a stretch
// that crosses taken branches and varies in length per iteration.
func spinByIteration(b *isa.Builder, label string) {
	b.OpImm(isa.ANDI, isa.T5, isa.S0, 3)
	b.OpImm(isa.SLLI, isa.T5, isa.T5, 2)
	b.Label(label)
	b.Br(isa.BLE, isa.T5, isa.Zero, label+"_done")
	b.OpImm(isa.ADDI, isa.T5, isa.T5, -1)
	b.Op3(isa.ADD, isa.T3, isa.T3, isa.T5)
	b.Jmp(label)
	b.Label(label + "_done")
}

func (l specLoop) image() *Image {
	b := isa.NewBuilder()
	b.Li(isa.T0, 0)
	b.Sw(isa.T0, isa.FP, 0) // i home
	b.Li(isa.T0, l.n)
	b.Sw(isa.T0, isa.FP, 1) // limit home
	b.Li(isa.T1, specCounter)
	b.Sw(isa.Zero, isa.T1, 0)
	b.Emit(isa.Instr{Op: isa.STLSTART, Imm: 1})
	b.Label("init")
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T1, Imm: isa.CP2Iteration})
	b.Lw(isa.S0, isa.FP, 0)
	b.Op3(isa.ADD, isa.S0, isa.S0, isa.T1)
	b.Lw(isa.S1, isa.FP, 1)
	b.Li(isa.S2, specCounter)
	b.Label("top")
	spinByIteration(b, "spin")
	busyWork(b, l.busy)
	b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
	if l.shared {
		b.Lw(isa.T2, isa.S2, 0) // early read of the shared counter
	}
	busyWork(b, l.busy)
	if l.allocAt >= 0 {
		b.Li(isa.T5, l.allocAt)
		b.Br(isa.BNE, isa.S0, isa.T5, "noalloc")
		b.Emit(isa.Instr{Op: isa.ALLOC, Rd: isa.T0, Imm: 3})
		b.Label("noalloc")
	}
	if l.throwAt >= 0 {
		b.Li(isa.T5, l.throwAt)
		b.Br(isa.BNE, isa.S0, isa.T5, "nothrow")
		b.Emit(isa.Instr{Op: isa.THROW, Rs: isa.S0})
		b.Label("nothrow")
	}
	if l.switchAt >= 0 {
		b.Li(isa.T5, l.switchAt)
		b.Br(isa.BNE, isa.S0, isa.T5, "body")
		b.Li(isa.S3, l.inner)
		b.Emit(isa.Instr{Op: isa.STLSWSTART, Imm: 2})
		b.Label("inner_init")
		b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.S4, Imm: isa.CP2Iteration})
		b.Label("inner_top")
		busyWork(b, l.busy)
		b.Br(isa.BGE, isa.S4, isa.S3, "inner_exit")
		b.Op3(isa.MUL, isa.T2, isa.S4, isa.S4)
		b.OpImm(isa.ADDI, isa.T3, isa.S4, specInner)
		b.Sw(isa.T2, isa.T3, 0)
		b.Emit(isa.Instr{Op: isa.STLEOI})
		b.OpImm(isa.ADDI, isa.S4, isa.S4, l.ncpu)
		b.Jmp("inner_top")
		b.Label("inner_exit")
		b.Emit(isa.Instr{Op: isa.STLSWEND})
	}
	b.Label("body")
	if l.shared {
		b.OpImm(isa.ADDI, isa.T2, isa.T2, 1)
		b.Sw(isa.T2, isa.S2, 0) // late write
	} else {
		b.Op3(isa.MUL, isa.T2, isa.S0, isa.S0)
		b.OpImm(isa.ADDI, isa.T0, isa.S0, specArr)
		b.Sw(isa.T2, isa.T0, 0)
	}
	b.Emit(isa.Instr{Op: isa.STLEOI})
	b.OpImm(isa.ADDI, isa.S0, isa.S0, l.ncpu)
	b.Jmp("top")
	b.Label("shutdown")
	b.Emit(isa.Instr{Op: isa.STLSHUTDOWN})
	b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T3})
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
	img.STLs[1] = &STLDesc{ID: 1, LoopID: 1, Method: 0, InitPC: b.LabelPC("init"),
		BodyStart: b.LabelPC("init"), BodyEnd: b.LabelPC("shutdown") + 1}
	if l.switchAt >= 0 {
		img.STLs[2] = &STLDesc{ID: 2, LoopID: 2, Method: 0, InitPC: b.LabelPC("inner_init"),
			BodyStart: b.LabelPC("inner_init"), BodyEnd: b.LabelPC("inner_exit") + 1, Inner: true}
	}
	return img
}

func specOpts(ncpu int64) Options {
	o := DefaultOptions()
	o.NCPU = int(ncpu)
	return o
}

// TestSpecSettleExactness lands every kind of event the event-driven
// scheduler must settle for inside a stretch or a sleep, and requires the
// final machine to equal the per-cycle reference's bit for bit (runTiered).
// Each case runs on 2 and 4 CPUs. The head token rotates over the CPUs, so
// the acting CPU of each violation, kill and commit sits both below and above
// the CPU it affects in ID order, and commits wake the next head both later
// in the same cycle (a higher ID) and on the next cycle (CPU 0).
func TestSpecSettleExactness(t *testing.T) {
	guard := &tls.GuardConfig{
		Window: 8, BadViolationRatio: 0.5, BadOverflowRatio: 1.1,
		Decertify: 2, Backoff: 1 << 30, MaxBackoff: 1 << 30,
	}
	type tcase struct {
		name      string
		loop      func(ncpu int64) specLoop
		opts      func(o Options) Options
		rt        func() Runtime
		maxCycles int64
		wantErr   error
		// rewinds demands that an event cut a stretch short.
		rewinds bool
	}
	cases := []tcase{
		{
			// Store-broadcast violations hit younger CPUs mid-stretch and
			// asleep at STL_EOI.
			name: "violation",
			loop: func(ncpu int64) specLoop {
				l := newSpecLoop(60, ncpu)
				l.shared = true
				return l
			},
			rewinds: true,
		},
		{
			// The last iteration's STL shutdown kills CPUs that are running
			// their next stretch or sleeping at STL_SHUTDOWN.
			name:    "kill/shutdown",
			loop:    func(ncpu int64) specLoop { return newSpecLoop(61, ncpu) },
			rewinds: true,
		},
		{
			// Switching into an inner STL kills the younger outer
			// iterations; switching out kills the surplus inner ones.
			name: "kill/multilevel-switch",
			loop: func(ncpu int64) specLoop {
				l := newSpecLoop(24, ncpu)
				l.switchAt, l.inner = 9, 23
				return l
			},
			rewinds: true,
		},
		{
			// The guard decertifies the thrashing loop; the demotion to solo
			// kills every younger thread.
			name: "kill/guard-demotion",
			loop: func(ncpu int64) specLoop {
				l := newSpecLoop(120, ncpu)
				l.shared = true
				return l
			},
			opts:    func(o Options) Options { o.Guard = guard; return o },
			rewinds: true,
		},
		{
			// A forced collection inside the loop quiesces: the head commits
			// its partial state and discards every younger thread.
			name: "gc-quiesce",
			loop: func(ncpu int64) specLoop {
				l := newSpecLoop(40, ncpu)
				l.allocAt = 13
				return l
			},
			rt:      func() Runtime { return &gcOnceRuntime{stubRuntime: newStubRuntime()} },
			rewinds: true,
		},
		{
			// An uncaught exception fails the machine while the younger
			// CPUs are mid-stretch or asleep; Run settles them on the way
			// out.
			name: "machine-failure",
			loop: func(ncpu int64) specLoop {
				l := newSpecLoop(40, ncpu)
				l.throwAt = 17
				return l
			},
			wantErr: ErrUncaughtException,
		},
	}
	// The cycle budget expires at a sweep of cycles inside the loop.
	for _, budget := range []int64{400, 433, 467, 501, 538, 577, 612, 650, 689, 721} {
		cases = append(cases, tcase{
			name: "budget/" + strconv.FormatInt(budget, 10),
			loop: func(ncpu int64) specLoop {
				l := newSpecLoop(200, ncpu)
				l.shared = true
				return l
			},
			maxCycles: budget,
			wantErr:   ErrCycleBudgetExceeded,
		})
	}
	// A pre-cancelled context fails the run at the first poll, one stride
	// in, with the loop in flight; the busy length shifts where the poll
	// lands.
	for _, busy := range []int{1, 4, 7, 11, 16} {
		cases = append(cases, tcase{
			name: "cancel/busy" + strconv.Itoa(busy),
			loop: func(ncpu int64) specLoop {
				l := newSpecLoop(4000, ncpu)
				l.shared = true
				l.busy = busy
				return l
			},
			opts: func(o Options) Options {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				o.Ctx = ctx
				return o
			},
			wantErr: ErrCancelled,
		})
	}

	for _, tc := range cases {
		for _, ncpu := range []int64{2, 4} {
			t.Run(tc.name+"/cpus"+strconv.FormatInt(ncpu, 10), func(t *testing.T) {
				opts := specOpts(ncpu)
				if tc.opts != nil {
					opts = tc.opts(opts)
				}
				maxC := tc.maxCycles
				if maxC == 0 {
					maxC = 50_000_000
				}
				on := runTiered(t, tc.loop(ncpu).image(), opts, tc.rt, maxC)
				if tc.wantErr != nil && !errors.Is(on.Err(), tc.wantErr) {
					t.Fatalf("err = %v, want %v", on.Err(), tc.wantErr)
				}
				if tc.wantErr == nil && on.Err() != nil {
					t.Fatalf("run failed: %v", on.Err())
				}
				if on.Tier.SpecStretches == 0 || on.Tier.SpecSleeps == 0 {
					t.Errorf("scheduler idle: %+v", on.Tier)
				}
				if tc.rewinds && on.Tier.SpecRewinds == 0 {
					t.Errorf("no event cut a stretch short: %+v", on.Tier)
				}
			})
		}
	}
}

// TestSpecSchedulerZeroAlloc proves the event-driven scheduler's steady
// state allocates nothing: stretches (across taken branches), sleeps at
// STL_EOI and the settles that wake the next head. A warm machine running
// 8x the iterations must not allocate more.
func TestSpecSchedulerZeroAlloc(t *testing.T) {
	measure := func(n int64) (float64, TierStats) {
		img := newSpecLoop(n, 4).image()
		var tier TierStats
		allocs := testing.AllocsPerRun(3, func() {
			m := NewMachine(img, newStubRuntime(), DefaultOptions())
			if err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			tier = m.Tier
			m.Release()
		})
		return allocs, tier
	}
	small, ts := measure(500)
	big, tb := measure(4000)
	if tb.SpecStretches <= ts.SpecStretches || tb.SpecSleeps <= ts.SpecSleeps {
		t.Fatalf("scheduler did not scale with the loop: %+v vs %+v", ts, tb)
	}
	if big > small+3 {
		t.Fatalf("scheduler allocates: %.0f allocs at 500 iterations vs %.0f at 4000", small, big)
	}
}
