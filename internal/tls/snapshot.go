// Safepoint snapshot support for the TLS unit and guard.
//
// Snapshots are taken only while speculation is inactive (the machine's
// safepoint predicate), so no per-thread state travels: every thread is
// between attempts with empty buffers, and whatever stale bytes linger in
// them are reset by the next StartAt/assign before they can be read. What
// must travel is exactly the cumulative accounting ResetStats clears — the
// Figure 10 state buckets and the event/buffer-usage counters — plus the
// guard's full per-loop decision state, which steers future STL entries.
// The per-CPU charged totals stay behind: only the doctor's ledger reads
// them, and a machine with a ledger attached takes no snapshots.
//
// The field order of UnitState deliberately mirrors DebugAppendState
// (debug.go): activation first, then counters in declaration order. The two
// serializations cover complementary halves of the unit — DebugAppendState
// the structural mid-STL state the litmus checker hashes, this one the
// cumulative counters it excludes — under the same ordering contract.
package tls

import (
	"fmt"
	"sort"
)

// UnitState is the cumulative counter state of an inactive Unit: precisely
// the fields ResetStats clears.
type UnitState struct {
	Stats           StateStats
	Commits         int64
	Violations      int64
	Overflows       int64
	MaxStoreLines   int
	MaxLoadLines    int
	SumStoreLines   int64
	SumLoadLines    int64
	CommittedLoads  int64
	CommittedStores int64
}

// CaptureState snapshots the unit's cumulative counters. It errors while an
// STL is active: mid-STL state is structural (buffers, read sets, attempt
// cycles) and is not a safepoint.
func (u *Unit) CaptureState() (UnitState, error) {
	if u.active {
		return UnitState{}, stateErr("CaptureState", "while an STL is active (not a safepoint)")
	}
	return UnitState{
		Stats:           u.Stats,
		Commits:         u.Commits,
		Violations:      u.Violations,
		Overflows:       u.Overflows,
		MaxStoreLines:   u.MaxStoreLines,
		MaxLoadLines:    u.MaxLoadLines,
		SumStoreLines:   u.sumStoreLines,
		SumLoadLines:    u.sumLoadLines,
		CommittedLoads:  u.committedLoads,
		CommittedStores: u.committedStores,
	}, nil
}

// RestoreState writes captured counters into a (freshly built, inactive)
// unit.
func (u *Unit) RestoreState(st UnitState) error {
	if u.active {
		return stateErr("RestoreState", "while an STL is active")
	}
	u.Stats = st.Stats
	u.Commits = st.Commits
	u.Violations = st.Violations
	u.Overflows = st.Overflows
	u.MaxStoreLines = st.MaxStoreLines
	u.MaxLoadLines = st.MaxLoadLines
	u.sumStoreLines = st.SumStoreLines
	u.sumLoadLines = st.SumLoadLines
	u.committedLoads = st.CommittedLoads
	u.committedStores = st.CommittedStores
	return nil
}

// GuardLoopState is one loop's complete guard state: the reported lifetime
// stats plus the private window counters, streak, backoff schedule and
// probe flag — everything that decides whether the next STL entry runs
// speculatively.
type GuardLoopState struct {
	LoopID      int64
	Stats       GuardLoopStats
	WCommits    int64
	WViolations int64
	WOverflows  int64
	BadStreak   int
	Backoff     int64
	Wait        int64
	Probing     bool
}

// CaptureState snapshots every tracked loop, sorted by loop id for a
// canonical encoding.
func (g *Guard) CaptureState() []GuardLoopState {
	if g == nil {
		return nil
	}
	out := make([]GuardLoopState, 0, len(g.loops))
	for id, lg := range g.loops {
		out = append(out, GuardLoopState{
			LoopID:      id,
			Stats:       lg.GuardLoopStats,
			WCommits:    lg.wCommits,
			WViolations: lg.wViolations,
			WOverflows:  lg.wOverflows,
			BadStreak:   lg.badStreak,
			Backoff:     lg.backoff,
			Wait:        lg.wait,
			Probing:     lg.probing,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LoopID < out[j].LoopID })
	return out
}

// RestoreState installs captured per-loop state into a freshly built guard,
// replacing whatever it tracked.
func (g *Guard) RestoreState(loops []GuardLoopState) error {
	if g == nil {
		if len(loops) == 0 {
			return nil
		}
		return fmt.Errorf("tls: guard restore: snapshot has %d loops but no guard is attached", len(loops))
	}
	g.loops = make(map[int64]*loopGuard, len(loops))
	for _, st := range loops {
		g.loops[st.LoopID] = &loopGuard{
			GuardLoopStats: st.Stats,
			wCommits:       st.WCommits,
			wViolations:    st.WViolations,
			wOverflows:     st.WOverflows,
			badStreak:      st.BadStreak,
			backoff:        st.Backoff,
			wait:           st.Wait,
			probing:        st.Probing,
		}
	}
	return nil
}
