package hydra

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
)

// drainFreeHardware empties the free list so the next machines build new
// hardware.
func drainFreeHardware() {
	freeHardware.mu.Lock()
	freeHardware.list = nil
	freeHardware.mu.Unlock()
}

// listedHardware returns a copy of the free list, oldest first.
func listedHardware() []*hardware {
	freeHardware.mu.Lock()
	defer freeHardware.mu.Unlock()
	return append([]*hardware(nil), freeHardware.list...)
}

// scatterImage stores val to n words spaced stride apart from base, then
// loads them back and prints their sum: a run that dirties many pages.
func scatterImage(base, n, stride, val int64) *Image {
	b := isa.NewBuilder()
	b.Li(isa.T0, base)
	b.Li(isa.T1, base+n*stride)
	b.Li(isa.T2, val)
	b.Label("store")
	b.Sw(isa.T2, isa.T0, 0)
	b.OpImm(isa.ADDI, isa.T0, isa.T0, stride)
	b.Br(isa.BLT, isa.T0, isa.T1, "store")
	b.Li(isa.T0, base)
	b.Li(isa.T3, 0)
	b.Label("load")
	b.Lw(isa.T2, isa.T0, 0)
	b.Op3(isa.ADD, isa.T3, isa.T3, isa.T2)
	b.OpImm(isa.ADDI, isa.T0, isa.T0, stride)
	b.Br(isa.BLT, isa.T0, isa.T1, "load")
	b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T3})
	b.Emit(isa.Instr{Op: isa.HALT})
	return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
}

// probeImage sums n words spaced stride apart from base without writing
// them first: on new or reset memory it prints 0.
func probeImage(base, n, stride int64) *Image {
	b := isa.NewBuilder()
	b.Li(isa.T0, base)
	b.Li(isa.T1, base+n*stride)
	b.Li(isa.T3, 0)
	b.Label("load")
	b.Lw(isa.T2, isa.T0, 0)
	b.Op3(isa.ADD, isa.T3, isa.T3, isa.T2)
	b.OpImm(isa.ADDI, isa.T0, isa.T0, stride)
	b.Br(isa.BLT, isa.T0, isa.T1, "load")
	b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T3})
	b.Emit(isa.Instr{Op: isa.HALT})
	return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
}

// annotatedLoopImage is a profiled loop whose every iteration reads and
// writes one heap word, a loop-carried dependence for TEST to measure.
func annotatedLoopImage(n, addr int64) *Image {
	b := isa.NewBuilder()
	b.Li(isa.T0, 0)
	b.Li(isa.T1, n)
	b.Li(isa.T4, addr)
	b.Emit(isa.Instr{Op: isa.SLOOP, Imm: 1})
	b.Label("loop")
	b.Lw(isa.T2, isa.T4, 0)
	b.Op3(isa.ADD, isa.T2, isa.T2, isa.T0)
	b.Sw(isa.T2, isa.T4, 0)
	b.Sw(isa.T0, isa.T4, 1+n)
	b.OpImm(isa.ADDI, isa.T0, isa.T0, 1)
	b.Emit(isa.Instr{Op: isa.EOI, Imm: 1})
	b.Br(isa.BLT, isa.T0, isa.T1, "loop")
	b.Emit(isa.Instr{Op: isa.ELOOP, Imm: 1})
	b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T2})
	b.Emit(isa.Instr{Op: isa.HALT})
	return image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
}

// hwGeometries are the machine configurations the recycling tests
// interleave: the paper's default, other CPU counts, a smaller store
// buffer and a custom cache.
type namedOptions struct {
	name string
	opts Options
}

func hwGeometries() []namedOptions {
	small := tls.DefaultConfig(4)
	small.StoreBufferLines = 4
	cache := mem.DefaultCacheConfig(4)
	cache.L1Lines, cache.L2Lines = 64, 1024
	return []namedOptions{
		{"default", DefaultOptions()},
		{"ncpu2", Options{NCPU: 2}},
		{"ncpu8", Options{NCPU: 8}},
		{"smallsb", Options{NCPU: 4, TLS: &small}},
		{"tinycache", Options{NCPU: 4, Cache: &cache}},
	}
}

// outcome is everything observable about one finished run, including the
// snapshots taken along the way.
type outcome struct {
	Clock, Instructions int64
	Output              []int64
	Stats               tls.StateStats
	Commits, Violations int64
	Overflows           int64
	L1Hits, L1Misses    int64
	L2Hits, L2Misses    int64
	Tier                TierStats
	Snaps               []string // snapshotDigest of each snapshot taken
	Loops               string   // the tracer's loop statistics, when profiling
}

// loopsDigest renders a tracer's loop statistics in loop and source order.
func loopsDigest(loops map[int64]*tracer.LoopStats) string {
	var b strings.Builder
	var ids []int64
	for id := range loops {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ls := *loops[id]
		var keys []uint32
		for k := range ls.Deps {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		deps := ls.Deps
		ls.Deps = nil
		fmt.Fprintf(&b, "%+v", ls)
		for _, k := range keys {
			fmt.Fprintf(&b, " %d:%+v", k, *deps[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// snapshotDigest condenses a snapshot to a hash of every field.
func snapshotDigest(s *MachineSnapshot) string {
	h := sha256.New()
	var buf []byte
	for _, span := range [][]int64{s.Mem.Low, s.Mem.High} {
		for _, w := range span {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
	}
	h.Write(buf)
	rest := *s
	rest.Mem.Low, rest.Mem.High, rest.T2 = nil, nil, nil
	fmt.Fprintf(h, "%+v", rest)
	if s.T2 != nil {
		fmt.Fprintf(h, "%+v", *s.T2)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runOutcome runs img on a new machine, snapshotting every 4096 cycles
// unless the machine profiles (a tracer precludes snapshots), and releases
// the machine.
func runOutcome(t *testing.T, img *Image, opts Options) outcome {
	t.Helper()
	var o outcome
	if !opts.Profile {
		cp := &Checkpointer{Stride: 4096}
		cp.Sink = func(s *MachineSnapshot) {
			o.Snaps = append(o.Snaps, snapshotDigest(s))
			cp.Request()
		}
		cp.Request()
		opts.Checkpoint = cp
	}
	m := NewMachine(img, newStubRuntime(), opts)
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	o.Clock, o.Instructions, o.Output = m.Clock, m.Instructions, m.Output
	o.Stats, o.Commits, o.Violations, o.Overflows = m.TLS.Stats, m.TLS.Commits, m.TLS.Violations, m.TLS.Overflows
	o.L1Hits, o.L1Misses, o.L2Hits, o.L2Misses = m.Caches.L1Hits, m.Caches.L1Misses, m.Caches.L2Hits, m.Caches.L2Misses
	o.Tier = m.Tier
	if m.Tracer != nil {
		o.Loops = loopsDigest(m.Tracer.Loops())
	}
	m.Release()
	return o
}

// TestRecycledMachineEqualsFresh runs a set of programs on new hardware,
// then again, in another order, on hardware that other programs and other
// geometries have dirtied: every outcome and every snapshot must be equal.
func TestRecycledMachineEqualsFresh(t *testing.T) {
	type job struct {
		name string
		img  *Image
		opts Options
	}
	var jobs []job
	for _, g := range hwGeometries() {
		name, opts := g.name, g.opts
		ncpu := int64(opts.NCPU)
		jobs = append(jobs,
			job{name + "/stl", buildParallelSTL(64, 100000, ncpu), opts},
			job{name + "/serialized", buildSerializedSTL(48), opts},
			job{name + "/probe", probeImage(int64(HeapBase), 400, 997), opts},
			job{name + "/scatter", scatterImage(int64(HeapBase)+13, 400, 1021, 7+ncpu), opts},
		)
		prof := opts
		prof.Profile = true
		jobs = append(jobs, job{name + "/profile", annotatedLoopImage(200, int64(HeapBase)+ncpu), prof})
	}
	fresh := map[string]outcome{}
	for _, j := range jobs {
		drainFreeHardware()
		fresh[j.name] = runOutcome(t, j.img, j.opts)
	}
	if got := fresh["default/probe"].Output; len(got) != 1 || got[0] != 0 {
		t.Fatalf("probe of new memory printed %v, want [0]", got)
	}
	if fresh["default/profile"].Loops == "" {
		t.Fatal("the profiled loop left no TEST statistics to compare")
	}
	for pass := 0; pass < 2; pass++ {
		for i := range jobs {
			j := jobs[i]
			if pass == 1 {
				j = jobs[len(jobs)-1-i]
			}
			got, want := runOutcome(t, j.img, j.opts), fresh[j.name]
			gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
			for f := 0; f < gv.NumField(); f++ {
				if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
					t.Errorf("pass %d: %s: %s on recycled hardware is %v, on new hardware %v",
						pass, j.name, gv.Type().Field(f).Name, gv.Field(f), wv.Field(f))
				}
			}
		}
	}
}

// TestHardwareGeometryKeyed checks that an entry only ever serves a machine
// of its own geometry, and that a mismatch leaves the entry on the list.
func TestHardwareGeometryKeyed(t *testing.T) {
	drainFreeHardware()
	img := snapshotLoopImage(10)
	geoms := hwGeometries()
	if len(geoms) > freeHardwareCap {
		geoms = geoms[:freeHardwareCap]
	}
	released := map[string]*hardware{}
	for _, g := range geoms {
		m := NewMachine(img, newStubRuntime(), g.opts)
		released[g.name] = m.hw
		m.Release()
	}
	for i := range geoms {
		name, opts := geoms[len(geoms)-1-i].name, geoms[len(geoms)-1-i].opts
		m := NewMachine(img, newStubRuntime(), opts)
		if m.hw != released[name] {
			t.Errorf("%s: did not reuse the entry its geometry released", name)
		}
		if want := m.hw.geom; m.Caches.Config() != want.cache || m.TLS.Config().NCPU != want.ncpu ||
			m.TLS.Config().StoreBufferLines != want.storeLines || len(m.CPUs) != want.ncpu {
			t.Errorf("%s: machine shape does not match its hardware's geometry %+v", name, want)
		}
		for _, h := range listedHardware() {
			if h == m.hw {
				t.Errorf("%s: entry in use is still listed", name)
			}
		}
		m.Release()
	}
	if n := len(listedHardware()); n != len(geoms) {
		t.Errorf("free list holds %d entries after %d geometries cycled, want %d", n, len(geoms), len(geoms))
	}
}

// TestProfileMachineTakesIdleSlabs: a profiling machine whose own entry has
// no tracer slabs takes the idle set from an entry of another geometry
// instead of allocating a new one, and a plain machine leaves slabs listed.
func TestProfileMachineTakesIdleSlabs(t *testing.T) {
	drainFreeHardware()
	img := buildSerializedSTL(8)
	prof := DefaultOptions()
	prof.Profile = true
	m := NewMachine(img, newStubRuntime(), prof)
	m.Release()
	slabs := listedHardware()[0].slabs
	if slabs == nil {
		t.Fatal("released profiling machine left no slabs on its entry")
	}
	// A plain machine of the same geometry takes the entry, parking the
	// slabs on the other listed entry.
	other := NewMachine(img, newStubRuntime(), Options{NCPU: 8})
	other.Release()
	plain := NewMachine(img, newStubRuntime(), DefaultOptions())
	if plain.hw.slabs != nil {
		t.Error("plain machine kept slabs while another entry could hold them")
	}
	if l := listedHardware(); len(l) != 1 || l[0].slabs != slabs {
		t.Error("slabs did not stay on the free list")
	}
	// A profiling machine of yet another geometry takes them over.
	p8 := prof
	p8.NCPU = 2
	pm := NewMachine(img, newStubRuntime(), p8)
	if err := pm.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	pm.Release()
	plain.Release()
	var found int
	for _, h := range listedHardware() {
		if h.slabs == slabs {
			found++
		} else if h.slabs != nil {
			t.Error("a second slab set was allocated while one sat idle")
		}
	}
	if found != 1 {
		t.Errorf("original slab set listed %d times, want 1", found)
	}
}

// TestHardwareConcurrentRecycle runs machines of mixed geometries on
// several goroutines at once; run it under -race.
func TestHardwareConcurrentRecycle(t *testing.T) {
	geoms := hwGeometries()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				opts := geoms[(g+i)%len(geoms)].opts
				opts.Profile = i%3 == 0
				want := int64(0)
				img := probeImage(int64(HeapBase), 300, 331)
				if i%2 == 1 {
					img, want = scatterImage(int64(HeapBase), 300, 331, 5), 1500
				}
				m := NewMachine(img, newStubRuntime(), opts)
				if err := m.Run(50_000_000); err != nil {
					t.Error(err)
					return
				}
				if len(m.Output) != 1 || m.Output[0] != want {
					t.Errorf("goroutine %d run %d printed %v, want [%d]", g, i, m.Output, want)
				}
				m.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestMachineRecycleAllocBytes is the allocation guard of the free list:
// after warm-up, building a profiling machine and releasing it allocates
// under 64 KiB — the machine's bookkeeping, none of its hardware.
func TestMachineRecycleAllocBytes(t *testing.T) {
	img := snapshotLoopImage(10)
	opts := DefaultOptions()
	opts.Profile = true
	cycle := func() {
		m := NewMachine(img, newStubRuntime(), opts)
		m.Release()
	}
	cycle()
	const n = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	if per >= 64<<10 {
		t.Fatalf("NewMachine(Profile)+Release allocates %d bytes after warm-up, want < 64 KiB", per)
	}
	t.Logf("NewMachine(Profile)+Release: %d bytes after warm-up", per)
}
