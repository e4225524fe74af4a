package litmus

import (
	"encoding/binary"
	"sort"

	"jrpm/internal/mem"
	"jrpm/internal/tls"
)

// shadow is the independent step-wise protocol oracle: a from-scratch
// re-implementation of the TLS coherence semantics over naive Go maps. It
// shares no code with internal/tls — store buffers are map[addr]value, read
// sets are map[addr]bool, line occupancy is re-derived by counting distinct
// lines among the keys — so a bug in the unit's generation-stamped CAMs,
// forwarding order, violation broadcast, or Figure-10 accounting shows up as
// a unit-versus-shadow mismatch at the exact step it first becomes
// observable.
//
// The shadow never models ChaosNoWordValid: it always implements the correct
// word-granularity semantics, which is what lets a Chaos test act as an
// oracle self-check (the checker must diverge with "load-value").
type shadow struct {
	t    *Test
	ncpu int
	h    tls.HandlerCosts

	storeCap int // store buffer line capacity (stall threshold)
	loadCap  int // load buffer line capacity

	mem map[mem.Addr]int64 // committed memory (pre-filled with initial values)
	th  []shadowThread

	active bool
	solo   bool
	stl    int64
	head   int64 // iteration holding the head token (nextCommit)
	spawn  int64 // next iteration to hand out (nextSpawn)

	stats      tls.StateStats
	commits    int64
	violations int64
	overflows  int64
	maxStore   int
	maxLoad    int
	sumStore   int64
	sumLoad    int64
	nCommitted int64

	// Conservation ledger: every cycle the driver charges plus every handler
	// cost the protocol incurs. At a clean terminal state
	// stats.Total() == chargedWork + chargedHandlers exactly.
	chargedWork     int64
	chargedHandlers int64
}

type shadowThread struct {
	iter       int64
	stores     map[mem.Addr]int64
	reads      map[mem.Addr]bool
	overflowed bool

	run, wait, overhead int64
}

func newShadow(t *Test) *shadow {
	s := &shadow{
		t:        t,
		ncpu:     t.NCPU,
		h:        tls.NewHandlers,
		storeCap: t.storeLines(),
		loadCap:  t.loadLines(),
		mem:      make(map[mem.Addr]int64),
		th:       make([]shadowThread, t.NCPU),
	}
	for i := 0; i < t.Addrs; i++ {
		s.mem[t.AddrOf(i)] = t.InitialValue(i)
	}
	for c := range s.th {
		s.th[c] = shadowThread{iter: -1, stores: map[mem.Addr]int64{}, reads: map[mem.Addr]bool{}}
	}
	return s
}

func (t *shadowThread) clearSpec() {
	clear(t.stores)
	clear(t.reads)
	t.overflowed = false
}

// storeLines counts the distinct lines among buffered stores — the quantity
// the hardware store buffer's occupancy counter tracks.
func (t *shadowThread) storeLines() int {
	lines := map[mem.Addr]bool{}
	for a := range t.stores {
		lines[mem.Line(a)] = true
	}
	return len(lines)
}

// readLines counts the distinct lines among tracked reads (load buffer use).
func (t *shadowThread) readLines() int {
	lines := map[mem.Addr]bool{}
	for a := range t.reads {
		lines[mem.Line(a)] = true
	}
	return len(lines)
}

func (s *shadow) isHead(c int) bool { return s.active && s.th[c].iter == s.head }

func (s *shadow) soloActive() bool { return s.active && s.solo }

func (s *shadow) storeOverflow(c int) bool { return s.th[c].storeLines() > s.storeCap }

func (s *shadow) loadOverflow(c int) bool { return s.th[c].readLines() > s.loadCap }

// charge mirrors Unit.ChargeAttempt for the active case (the driver never
// charges while inactive) and feeds the conservation ledger.
func (s *shadow) charge(c int, kind tls.ChargeKind, cycles int64) {
	t := &s.th[c]
	switch kind {
	case tls.ChargeRun:
		t.run += cycles
	case tls.ChargeWait:
		t.wait += cycles
	}
	s.chargedWork += cycles
}

func (s *shadow) flush(c int, used bool) {
	t := &s.th[c]
	if used {
		s.stats.RunUsed += t.run
		s.stats.WaitUsed += t.wait
	} else {
		s.stats.RunViolated += t.run
		s.stats.WaitViolated += t.wait
	}
	s.stats.Overhead += t.overhead
	t.run, t.wait, t.overhead = 0, 0, 0
}

// load predicts Load's value and applies its read-tracking side effect
// (track=false models lwnv). Forwarding order is the protocol's: own buffer,
// then the nearest older alive thread that buffered the word, then memory.
func (s *shadow) load(c int, a mem.Addr, track bool) int64 {
	t := &s.th[c]
	if v, ok := t.stores[a]; ok {
		return v
	}
	if track {
		t.reads[a] = true
	}
	my := t.iter
	var bestIter int64 = -1
	var bestVal int64
	for i := range s.th {
		ot := &s.th[i]
		if ot.iter >= 0 && ot.iter < my && ot.iter > bestIter {
			if v, ok := ot.stores[a]; ok {
				bestIter = ot.iter
				bestVal = v
			}
		}
	}
	if bestIter >= 0 {
		return bestVal
	}
	return s.mem[a]
}

// track mirrors Unit.TrackRead: expose a read with no data transfer.
func (s *shadow) track(c int, a mem.Addr) {
	t := &s.th[c]
	if _, ok := t.stores[a]; ok {
		return
	}
	t.reads[a] = true
}

// store predicts Store's violation set: buffer the write, then violate from
// the oldest younger thread with an exposed read of a.
func (s *shadow) store(c int, a mem.Addr, v int64) []int {
	t := &s.th[c]
	t.stores[a] = v
	my := t.iter
	var oldest int64 = -1
	for i := range s.th {
		ot := &s.th[i]
		if ot.iter > my && ot.reads[a] {
			if oldest < 0 || ot.iter < oldest {
				oldest = ot.iter
			}
		}
	}
	if oldest < 0 {
		return nil
	}
	return s.violateFrom(oldest)
}

// violateFrom mirrors Unit.ViolateFrom: every thread at or past fromIter is
// restarted — violation counted, attempt flushed to the violated buckets,
// speculative state discarded, restart handler charged to the new attempt.
func (s *shadow) violateFrom(fromIter int64) []int {
	var cpus []int
	for c := range s.th {
		t := &s.th[c]
		if t.iter >= fromIter {
			s.violations++
			s.flush(c, false)
			t.clearSpec()
			t.overhead += s.h.Restart
			s.chargedHandlers += s.h.Restart
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// killYounger mirrors Unit.KillYounger: younger threads are discarded into
// the violated buckets with no violation count and no restart charge.
func (s *shadow) killYounger(c int) []int {
	my := s.th[c].iter
	var killed []int
	for i := range s.th {
		t := &s.th[i]
		if t.iter > my {
			s.flush(i, false)
			t.clearSpec()
			t.iter = -1
			killed = append(killed, i)
		}
	}
	return killed
}

func (s *shadow) noteUsage(c int) {
	t := &s.th[c]
	sl := t.storeLines()
	ll := t.readLines()
	if sl > s.maxStore {
		s.maxStore = sl
	}
	if ll > s.maxLoad {
		s.maxLoad = ll
	}
	s.sumStore += int64(sl)
	s.sumLoad += int64(ll)
	s.nCommitted++
}

func (s *shadow) drain(c int) {
	t := &s.th[c]
	for a, v := range t.stores {
		s.mem[a] = v
	}
	clear(t.stores)
}

// commitEOI mirrors Unit.CommitEOI: usage noted, attempt flushed used,
// buffer drained, tracking cleared, head token advanced, the CPU handed the
// next spawn iteration, and the EOI handler charged to the new attempt.
func (s *shadow) commitEOI(c int) {
	t := &s.th[c]
	s.noteUsage(c)
	s.flush(c, true)
	s.drain(c)
	clear(t.reads)
	t.overflowed = false
	s.commits++
	s.head++
	t.iter = s.spawn
	s.spawn++
	t.overhead += s.h.EOI
	s.chargedHandlers += s.h.EOI
}

// partial mirrors Unit.CommitPartial: the head drains mid-iteration and
// clears tracking; the overflow-episode flag is deliberately preserved.
func (s *shadow) partial(c int) {
	t := &s.th[c]
	s.drain(c)
	clear(t.reads)
}

// drainOverflow mirrors Unit.DrainOverflow, returning whether this drain
// opened a new overflow episode.
func (s *shadow) drainOverflow(c int) bool {
	t := &s.th[c]
	newEpisode := !t.overflowed
	t.overflowed = true
	if newEpisode {
		s.overflows++
	}
	s.drain(c)
	clear(t.reads)
	return newEpisode
}

// demote mirrors Unit.DemoteSolo.
func (s *shadow) demote(c int) []int {
	killed := s.killYounger(c)
	s.solo = true
	s.spawn = s.th[c].iter + 1
	return killed
}

// switchSTL mirrors the fixed Unit.SwitchSTL: the head's pending attempt
// cycles flush to the used buckets (its partial work was published by the
// mandatory CommitPartial), then iterations reassign from its own.
func (s *shadow) switchSTL(stl int64, c int) {
	s.flush(c, true)
	s.assign(stl, c, s.th[c].iter)
}

// assign mirrors Unit.assign.
func (s *shadow) assign(stl int64, headCPU int, baseIter int64) {
	s.stl = stl
	s.head = baseIter
	if s.solo {
		s.spawn = baseIter + 1
		for c := range s.th {
			t := &s.th[c]
			if c == headCPU {
				t.iter = baseIter
			} else {
				t.iter = -1
			}
			t.clearSpec()
			t.run, t.wait, t.overhead = 0, 0, 0
		}
		return
	}
	s.spawn = baseIter + int64(s.ncpu)
	for off := 0; off < s.ncpu; off++ {
		t := &s.th[(headCPU+off)%s.ncpu]
		t.iter = baseIter + int64(off)
		t.clearSpec()
		t.run, t.wait, t.overhead = 0, 0, 0
	}
}

// startAt mirrors Unit.StartAt.
func (s *shadow) startAt(stl int64, headCPU int, baseIter int64) {
	s.active = true
	s.solo = false
	s.stats.Overhead += s.h.Startup
	s.chargedHandlers += s.h.Startup
	s.assign(stl, headCPU, baseIter)
}

// shutdown mirrors Unit.Shutdown.
func (s *shadow) shutdown(c int) []int {
	s.noteUsage(c)
	s.flush(c, true)
	s.drain(c)
	s.stats.Overhead += s.h.Shutdown
	s.chargedHandlers += s.h.Shutdown
	var killed []int
	for i := range s.th {
		t := &s.th[i]
		if i == c {
			t.iter = -1
			continue
		}
		if t.iter >= 0 {
			s.flush(i, false)
			t.clearSpec()
			t.iter = -1
			killed = append(killed, i)
		}
	}
	s.active = false
	s.solo = false
	return killed
}

func (s *shadow) avgBufferLines() (store, load float64) {
	if s.nCommitted == 0 {
		return 0, 0
	}
	return float64(s.sumStore) / float64(s.nCommitted), float64(s.sumLoad) / float64(s.nCommitted)
}

// appendState serializes the shadow's protocol-relevant state (canonically:
// footprint addresses in index order, map keys sorted) for the explorer's
// abstract-state hash. Cumulative counters are excluded for the same reason
// as in Unit.DebugAppendState — they are compared step-wise instead.
func (s *shadow) appendState(b []byte) []byte {
	b = appendBool(b, s.active)
	b = appendBool(b, s.solo)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.stl))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.head))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.spawn))
	for i := 0; i < s.t.Addrs; i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.mem[s.t.AddrOf(i)]))
	}
	for c := range s.th {
		t := &s.th[c]
		b = binary.LittleEndian.AppendUint64(b, uint64(t.iter))
		b = appendBool(b, t.overflowed)
		b = binary.LittleEndian.AppendUint64(b, uint64(t.run))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.wait))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.overhead))
		b = appendSortedAddrStores(b, t.stores)
		b = appendSortedAddrSet(b, t.reads)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendSortedAddrStores(b []byte, m map[mem.Addr]int64) []byte {
	keys := make([]mem.Addr, 0, len(m))
	for a := range m {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, a := range keys {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
		b = binary.LittleEndian.AppendUint64(b, uint64(m[a]))
	}
	return b
}

func appendSortedAddrSet(b []byte, m map[mem.Addr]bool) []byte {
	keys := make([]mem.Addr, 0, len(m))
	for a := range m {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, a := range keys {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	return b
}
