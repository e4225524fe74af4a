package mem

import (
	"fmt"
	"runtime"
)

// State is a deterministic capture of a Memory's observable contents: the
// dirty-watermark spans on either side of the split, copied verbatim. Words
// outside the spans are zero, and a memory starts all-zero whether it is
// new or reset (Reset clears every page the previous run wrote), so a
// capture is a function of the run alone, never of what the memory served
// before.
type State struct {
	Size  int
	Split Addr
	LoMax Addr
	HiMin Addr
	Low   []int64 // words[0:LoMax]
	High  []int64 // words[HiMin:Size]
}

// CaptureState copies the dirty spans into a State. The copy is private to
// the caller; later writes to the memory do not affect it.
func (m *Memory) CaptureState() State {
	st := State{
		Size:  len(m.words),
		Split: m.split,
		LoMax: m.loMax,
		HiMin: m.hiMin,
	}
	st.Low = append([]int64(nil), m.words[:m.loMax]...)
	st.High = append([]int64(nil), m.words[m.hiMin:]...)
	runtime.KeepAlive(m)
	return st
}

// RestoreState writes a captured State back into the memory. The target
// must have the same geometry (size and split) and should be new or reset:
// only zero words, or words the target's runtime wrote before the restore,
// may sit outside its watermarks. The low watermark is widened, never
// narrowed, so it keeps bounding everything the target wrote.
func (m *Memory) RestoreState(st State) error {
	if st.Size != len(m.words) || st.Split != m.split {
		return fmt.Errorf("mem: restore geometry mismatch: snapshot %d/%d words split %d/%d",
			st.Size, len(m.words), st.Split, m.split)
	}
	if int(st.LoMax) != len(st.Low) || st.Size-int(st.HiMin) != len(st.High) {
		return fmt.Errorf("mem: restore span lengths inconsistent with watermarks")
	}
	if st.LoMax > st.Split || st.HiMin < st.Split {
		return fmt.Errorf("mem: restore watermarks cross the split")
	}
	copy(m.words[:st.LoMax], st.Low)
	copy(m.words[st.HiMin:], st.High)
	m.markDirty(0, st.LoMax)
	m.markDirty(st.HiMin, Addr(st.Size))
	// Zero anything the target dirtied above the snapshot's high watermark
	// (a booted-but-unrestored machine could have touched stack words).
	if m.hiMin < st.HiMin {
		clear(m.words[m.hiMin:st.HiMin])
	}
	if st.LoMax > m.loMax {
		m.loMax = st.LoMax
	}
	m.hiMin = st.HiMin
	return nil
}

// SetState captures one set-associative tag array: tags, per-entry LRU
// stamps and the LRU clock. Replacement decisions depend on all three, so
// a restored cache charges exactly the latencies the original would have.
type SetState struct {
	Tags  []Addr
	LRU   []uint32
	Clock uint32
}

func (s *setAssoc) captureState() SetState {
	return SetState{
		Tags:  append([]Addr(nil), s.tags...),
		LRU:   append([]uint32(nil), s.lru...),
		Clock: s.clock,
	}
}

func (s *setAssoc) restoreState(st SetState) error {
	if len(st.Tags) != len(s.tags) || len(st.LRU) != len(s.lru) {
		return fmt.Errorf("mem: cache restore geometry mismatch: %d/%d tags, %d/%d lru",
			len(st.Tags), len(s.tags), len(st.LRU), len(s.lru))
	}
	copy(s.tags, st.Tags)
	copy(s.lru, st.LRU)
	s.clock = st.Clock
	for set := range s.dirty {
		s.dirty[set] = 1
	}
	return nil
}

// CacheState captures the full cache hierarchy: every L1, the shared L2,
// and the hit/miss counters (the counters are not wire-carried today, but
// the tag/LRU state decides every future latency, so both travel together).
type CacheState struct {
	L1       []SetState
	L2       SetState
	L1Hits   int64
	L1Misses int64
	L2Hits   int64
	L2Misses int64
}

// CaptureState copies the hierarchy's tag state and counters.
func (cs *CacheSim) CaptureState() CacheState {
	st := CacheState{
		L2:       cs.l2.captureState(),
		L1Hits:   cs.L1Hits,
		L1Misses: cs.L1Misses,
		L2Hits:   cs.L2Hits,
		L2Misses: cs.L2Misses,
	}
	for _, l1 := range cs.l1 {
		st.L1 = append(st.L1, l1.captureState())
	}
	return st
}

// RestoreState writes a captured hierarchy back. The target must have the
// same geometry (CPU count and per-level shape).
func (cs *CacheSim) RestoreState(st CacheState) error {
	if len(st.L1) != len(cs.l1) {
		return fmt.Errorf("mem: cache restore NCPU mismatch: snapshot %d, machine %d", len(st.L1), len(cs.l1))
	}
	for i, l1 := range cs.l1 {
		if err := l1.restoreState(st.L1[i]); err != nil {
			return fmt.Errorf("l1[%d]: %w", i, err)
		}
	}
	if err := cs.l2.restoreState(st.L2); err != nil {
		return fmt.Errorf("l2: %w", err)
	}
	cs.L1Hits, cs.L1Misses = st.L1Hits, st.L1Misses
	cs.L2Hits, cs.L2Misses = st.L2Hits, st.L2Misses
	return nil
}
