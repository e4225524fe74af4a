package tls

import (
	"encoding/binary"

	"jrpm/internal/mem"
)

// DebugAppendState appends a deterministic byte snapshot of the unit's
// structural state to b and returns the extended slice. It is a test hook for
// the litmus model checker (internal/litmus), which hashes the snapshot to
// prune revisited abstract states during exhaustive interleaving enumeration.
//
// The snapshot covers everything that can influence future protocol behavior
// or a future unit-versus-oracle comparison that is not separately verified
// every step: activation mode, head/spawn tokens, and per-thread iteration,
// overflow flag, unflushed attempt cycles, store-buffer contents (in
// line-allocation order), and speculative read sets (in insertion order). It
// deliberately excludes the cumulative counters (Stats, Commits, Violations,
// Overflows, buffer high-water marks): the checker compares those against its
// shadow model after every step, so any drift is caught before a pruning
// decision could hide it. Cache microstate is also excluded — the litmus
// driver charges fixed per-operation cycles and never observes latencies.
//
// Two semantically equal states may serialize differently (insertion order is
// history-dependent); that only costs pruning opportunities, never soundness.
func (u *Unit) DebugAppendState(b []byte) []byte {
	b = appendDebugBool(b, u.active)
	b = appendDebugBool(b, u.solo)
	b = binary.LittleEndian.AppendUint64(b, uint64(u.stlID))
	b = binary.LittleEndian.AppendUint64(b, uint64(u.nextCommit))
	b = binary.LittleEndian.AppendUint64(b, uint64(u.nextSpawn))
	for _, t := range u.threads {
		b = binary.LittleEndian.AppendUint64(b, uint64(t.iter))
		b = appendDebugBool(b, t.overflowed)
		b = binary.LittleEndian.AppendUint64(b, uint64(t.run))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.wait))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.waitO))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.overhead))

		sb := t.buf
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sb.order)))
		for _, slot := range sb.order {
			b = binary.LittleEndian.AppendUint32(b, uint32(sb.tags[slot]))
			b = append(b, sb.valid[slot])
			for off := 0; off < mem.LineWords; off++ {
				if sb.valid[slot]&(1<<uint(off)) != 0 {
					b = binary.LittleEndian.AppendUint64(b, uint64(sb.words[int(slot)*mem.LineWords+off]))
				}
			}
		}
		b = appendDebugAddrs(b, t.readWords.order)
		b = appendDebugAddrs(b, t.readLines.order)
	}
	return b
}

func appendDebugBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendDebugAddrs(b []byte, order []mem.Addr) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(order)))
	for _, a := range order {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	return b
}
