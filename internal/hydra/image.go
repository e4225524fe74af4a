// Package hydra simulates the Hydra chip multiprocessor executing compiled
// native code: four (configurable) single-issue cores with private L1
// caches over a shared L2, thread-level speculation support (package tls),
// and the TEST profile hardware (package tracer) observing the memory
// system during annotated runs.
//
// The machine executes an Image — the native-code output of the microJIT —
// and orchestrates the STL protocol of the paper's Figure 4: the master CPU
// enters an STL and wakes the slaves; iterations are distributed round
// robin; threads wait to become the head before committing at end of
// iteration; RAW violations redirect threads to the STL restart point;
// loop exit shuts speculation down and the exiting CPU resumes serial
// execution as the new master.
package hydra

import (
	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/obs"
	"jrpm/internal/tracer"
)

// Handler is a native-pc exception table entry (translated from the
// bytecode handler table by the JIT). Kind 0 catches everything.
type Handler struct {
	Start  int
	End    int
	Target int
	Kind   int64
}

// Method is one natively compiled method.
type Method struct {
	ID         int
	Name       string
	Code       isa.Code
	FrameWords int64 // stack frame size (locals homes, spills, STL slots)
	Handlers   []Handler
	// SavedRegs lists the callee-saved registers the method's prologue
	// stores at frame offsets SaveBase+i; exception unwinding restores them
	// (the epilogue restores them on normal return).
	SavedRegs []isa.Reg
	SaveBase  int64
	// Frame is the JIT's debug table: one entry per frame word, classifying
	// it as a bytecode local home, callee-save slot, STL bookkeeping word
	// (resetable-inductor base, lock word, reduction partial) or spill. The
	// doctor symbolizes violation addresses in the stack region through it.
	Frame []obs.FrameSlot
}

// STLDesc describes one compiled speculative thread loop region.
type STLDesc struct {
	ID     int64 // STL id carried by the STLSTART/STLSWSTART instruction
	LoopID int64 // the cfg global loop id this STL was selected from
	Method int   // method containing the loop
	InitPC int   // restart target (the STL_INIT label of Figures 4-5)
	// [BodyStart, BodyEnd) spans the compiled STL region; exceptions caught
	// at a handler inside this range stay speculative (§5.1).
	BodyStart int
	BodyEnd   int
	Inner     bool // an inner STL reached via STLSWSTART (§4.2.6)
	// Hoisted marks STLs whose slave wake-up half of the startup/shutdown
	// handlers was hoisted to the enclosing method or loop (§4.2.7): the
	// slaves stay spun-up between entries, so repeat entries pay a reduced
	// handler cost.
	Hoisted bool
}

// Hoisted handler savings: more than half the startup/shutdown handler is
// slave wake-up and speculation-hardware initialization (§4.2.7), which a
// hoisted STL pays only on its first entry.
const (
	HoistStartupSaving  = 14
	HoistShutdownSaving = 10
)

// Image is a complete native program.
type Image struct {
	Name    string
	Methods []*Method
	STLs    map[int64]*STLDesc
	Main    int
	// Statics is the number of static field words placed at the globals
	// base (addressed off $gp).
	Statics int
}

// Method returns the compiled method with the given id.
func (img *Image) Method(id int) *Method { return img.Methods[id] }

// Runtime is the VM service interface the machine calls for allocation,
// garbage collection and monitors. Implementations perform their memory
// traffic through the machine's RuntimeLoad/RuntimeStore accessors so that
// the TLS hardware and the TEST profiler observe the dependencies (free
// list heads, object lock words).
type Runtime interface {
	// Alloc allocates an instance of class classID and returns its
	// reference, or gcNeeded=true if a collection must run first.
	Alloc(m *Machine, cpu int, classID int64) (ref int64, gcNeeded bool)
	// AllocArray allocates an array of length words.
	AllocArray(m *Machine, cpu int, length int64) (ref int64, gcNeeded bool)
	// CollectGarbage runs a stop-the-world collection; it must charge its
	// cost via Machine.ChargeGC.
	CollectGarbage(m *Machine, cpu int)
	// MonitorEnter/MonitorExit implement the synchronized object lock
	// (§5.3): the speculation-aware implementation elides the lock-word
	// traffic while speculation is active.
	MonitorEnter(m *Machine, cpu int, ref int64)
	MonitorExit(m *Machine, cpu int, ref int64)
}

// AddrClass tags runtime memory traffic so the TEST analysis can separate
// VM-internal dependencies (allocator free lists, object lock words) that
// the VM modifications of §5.2/§5.3 remove during speculation.
type AddrClass = tracer.AddrClass

// Address classes, re-exported from the tracer.
const (
	ClassHeap  = tracer.ClassHeap
	ClassAlloc = tracer.ClassAlloc
	ClassLock  = tracer.ClassLock
	ClassStack = tracer.ClassStack
)

// StackRegionBase is the lowest address belonging to the runtime stacks;
// the machine classifies accesses at or above it as ClassStack for the
// profiler.
const StackRegionBase mem.Addr = 1 << 21

// Multilevel switch handler costs (§4.2.6 "low-overhead handlers"; the
// paper does not tabulate them — they are a fraction of the full
// startup/shutdown cost because the slave CPUs are already awake).
const (
	SwitchStartupCost  = 12
	SwitchShutdownCost = 12
)

// Memory layout of the simulated address space (word addresses). Address 0
// is the null page and never allocated.
const (
	GlobalBase mem.Addr = 64      // static fields
	HeapBase   mem.Addr = 1 << 12 // VM heap
	StackTop   mem.Addr = 1 << 22 // runtime stack, grows down
	MemWords            = 1<<22 + 4096
)
