// Package faultinject provides a deterministic, seedable fault plan for
// adversarial testing of the speculation machinery. A Plan names the fault
// channels and their rates; an Injector threads through the simulator
// (hydra.Machine, tls.Unit, the microJIT) and answers, at each potential
// fault point, whether the fault fires.
//
// Decisions are derived from a counter-mode hash of (seed, channel, event
// index), so a plan is reproducible: the same program on the same
// configuration sees exactly the same fault sequence, independent of host
// state. A zero-rate plan never fires and never perturbs timing, so runs
// with a zero plan are cycle-identical to runs with no injector at all.
//
// The channels model the failure classes the speculation safety net must
// absorb (ISSUE: speculation must be safe to be wrong about):
//
//   - raw: spurious RAW violations delivered to speculative non-head
//     threads, as if the write bus had matched an exposed read.
//   - overflow: spurious store-buffer/exposed-read capacity pressure — the
//     buffer-full signal asserts early, forcing overflow stalls and drains.
//   - bus: delayed write-bus arbitration — speculative stores pay extra
//     arbitration cycles.
//   - heap: spurious allocation failure, forcing the GC-at-head path.
//   - jit: lowering failure in the microJIT, forcing the controller to fall
//     back to sequential code.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Channel identifies one fault class.
type Channel int

// Fault channels.
const (
	ChRAW Channel = iota
	ChOverflow
	ChBus
	ChHeap
	ChJIT
	numChannels
)

// String names the channel as it appears in a plan spec.
func (c Channel) String() string {
	switch c {
	case ChRAW:
		return "raw"
	case ChOverflow:
		return "overflow"
	case ChBus:
		return "bus"
	case ChHeap:
		return "heap"
	case ChJIT:
		return "jit"
	}
	return "?"
}

// Plan is a complete fault-injection configuration. Rates are per-event
// probabilities in [0,1]; an event is one query at the corresponding fault
// point (one speculative instruction, one capacity check, one store, one
// allocation, one method lowering).
type Plan struct {
	Seed int64

	RAW      float64 // spurious violation per speculative non-head instruction
	Overflow float64 // spurious capacity pressure per overflow query
	Bus      float64 // delayed arbitration per speculative store
	BusDelay int64   // extra cycles charged when the bus channel fires
	Heap     float64 // spurious exhaustion per allocation
	JIT      float64 // lowering failure per method compiled
}

// Zero reports whether the plan can never fire a fault.
func (p Plan) Zero() bool {
	return p.RAW <= 0 && p.Overflow <= 0 && p.Bus <= 0 && p.Heap <= 0 && p.JIT <= 0
}

// rate returns the firing probability of a channel.
func (p Plan) rate(c Channel) float64 {
	switch c {
	case ChRAW:
		return p.RAW
	case ChOverflow:
		return p.Overflow
	case ChBus:
		return p.Bus
	case ChHeap:
		return p.Heap
	case ChJIT:
		return p.JIT
	}
	return 0
}

// String renders the plan in the spec form Parse accepts.
func (p Plan) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("raw", p.RAW)
	add("overflow", p.Overflow)
	add("bus", p.Bus)
	if p.Bus > 0 && p.BusDelay > 0 {
		parts = append(parts, fmt.Sprintf("busdelay=%d", p.BusDelay))
	}
	add("heap", p.Heap)
	add("jit", p.JIT)
	return strings.Join(parts, ",")
}

// Parse reads a plan spec of comma-separated key=value pairs, e.g.
//
//	seed=42,raw=0.01,overflow=0.005,bus=0.02,busdelay=12,heap=0.001,jit=0
//
// Unknown keys and malformed values are errors. An empty spec is the zero
// plan.
func Parse(spec string) (Plan, error) {
	p := Plan{BusDelay: 8}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("faultinject: bad pair %q (want key=value)", kv)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		switch k {
		case "seed", "busdelay":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return p, fmt.Errorf("faultinject: bad %s %q: %v", k, v, err)
			}
			if k == "seed" {
				p.Seed = n
			} else {
				p.BusDelay = n
			}
		case "raw", "overflow", "bus", "heap", "jit":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("faultinject: bad rate %s=%q (want 0..1)", k, v)
			}
			switch k {
			case "raw":
				p.RAW = f
			case "overflow":
				p.Overflow = f
			case "bus":
				p.Bus = f
			case "heap":
				p.Heap = f
			case "jit":
				p.JIT = f
			}
		default:
			return p, fmt.Errorf("faultinject: unknown key %q", k)
		}
	}
	return p, nil
}

// Injector makes fault decisions for one run. A nil *Injector is valid and
// never fires, so call sites need no nil checks. The zero value of each
// channel counter makes decision sequences reproducible per channel
// regardless of interleaving with other channels.
type Injector struct {
	plan  Plan
	count [numChannels]uint64
	fired [numChannels]int64
}

// New builds an injector for plan. Returns nil for a zero plan so that the
// zero-fault fast path is a nil-receiver no-op.
func New(plan Plan) *Injector {
	if plan.Zero() {
		return nil
	}
	return &Injector{plan: plan}
}

// Plan returns the injector's plan (zero Plan for a nil injector).
func (j *Injector) Plan() Plan {
	if j == nil {
		return Plan{}
	}
	return j.plan
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed counter hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide draws the next decision on channel c. j must be non-nil: the
// exported wrappers below test for nil themselves, so they inline and the
// disabled injector costs a nil compare at each call site, never a call.
func (j *Injector) decide(c Channel) bool {
	rate := j.plan.rate(c)
	if rate <= 0 {
		return false
	}
	j.count[c]++
	x := splitmix64(uint64(j.plan.Seed)<<8 ^ uint64(c)<<56 ^ j.count[c])
	if float64(x>>11)/(1<<53) < rate {
		j.fired[c]++
		return true
	}
	return false
}

// SpuriousRAW reports whether a spurious RAW violation fires at this
// speculative instruction.
func (j *Injector) SpuriousRAW() bool { return j != nil && j.decide(ChRAW) }

// OverflowPressure reports whether spurious buffer-capacity pressure fires
// at this overflow query.
func (j *Injector) OverflowPressure() bool { return j != nil && j.decide(ChOverflow) }

// BusDelayCycles returns extra write-bus arbitration cycles for this
// speculative store (0 when the channel does not fire).
func (j *Injector) BusDelayCycles() int64 {
	if j == nil {
		return 0
	}
	return j.busDelay()
}

// busDelay is BusDelayCycles for a non-nil injector, kept out of line so the
// wrapper stays within the inliner's budget.
//
//go:noinline
func (j *Injector) busDelay() int64 {
	if j.decide(ChBus) {
		d := j.plan.BusDelay
		if d <= 0 {
			d = 8
		}
		return d
	}
	return 0
}

// HeapExhausted reports whether this allocation spuriously fails, forcing
// the garbage-collection-at-head path.
func (j *Injector) HeapExhausted() bool { return j != nil && j.decide(ChHeap) }

// JITFailure reports whether this method lowering spuriously fails.
func (j *Injector) JITFailure() bool { return j != nil && j.decide(ChJIT) }

// Fired returns per-channel counts of faults that actually fired.
func (j *Injector) Fired() map[string]int64 {
	out := map[string]int64{}
	if j == nil {
		return out
	}
	for c := Channel(0); c < numChannels; c++ {
		if j.fired[c] > 0 {
			out[c.String()] = j.fired[c]
		}
	}
	return out
}

// FiredTotal returns the total number of faults fired on all channels.
func (j *Injector) FiredTotal() int64 {
	if j == nil {
		return 0
	}
	var n int64
	for c := Channel(0); c < numChannels; c++ {
		n += j.fired[c]
	}
	return n
}

// Summary renders fired counts as a stable one-line string for logs.
func (j *Injector) Summary() string {
	m := j.Fired()
	if len(m) == 0 {
		return "no faults fired"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
