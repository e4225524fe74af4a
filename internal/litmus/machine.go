package litmus

import (
	"encoding/binary"
	"fmt"
	"slices"

	"jrpm/internal/mem"
	"jrpm/internal/tls"
)

// Divergence categories, in the order the checks run. Every category names
// one specific oracle disagreement so minimization can preserve the failure
// mode while shrinking the test.
const (
	CheckLoadValue    = "load-value"         // Load returned a different value than the shadow forwards
	CheckViolationSet = "violation-set"      // Store/ViolateFrom violated a different CPU set
	CheckKilledSet    = "killed-set"         // KillYounger/Shutdown killed a different CPU set
	CheckEpisode      = "episode"            // DrainOverflow's new-episode verdict differs
	CheckStepError    = "step-error"         // the unit refused an operation the protocol allows
	CheckIteration    = "iteration-state"    // per-CPU iteration assignment differs
	CheckHeadState    = "head-state"         // head token / active / solo / STL id differs
	CheckOverflowPred = "overflow-predicate" // StoreOverflow/LoadOverflow differs
	CheckMemory       = "memory"             // committed memory differs mid-run
	CheckStats        = "stats"              // Figure-10 StateStats buckets differ
	CheckCounters     = "counters"           // commit/violation/overflow/buffer-usage counters differ
	CheckDeadlock     = "deadlock"           // no runnable CPU but the STL never shut down
	CheckNondet       = "nondeterminism"     // a replayed prefix produced a different runnable set
	CheckStepBound    = "step-bound"         // a schedule exceeded MaxSteps (runaway protocol)
	CheckFinalMemory  = "final-memory"       // terminal memory differs from the sequential oracle
	CheckObserved     = "observed-loads"     // a committed iteration observed non-sequential values
	CheckCommitted    = "committed-set"      // the committed-iteration sequence differs
)

// Divergence describes one oracle disagreement, anchored to the trace step
// where it surfaced and (when meaningful) the earlier step it conflicts with.
type Divergence struct {
	Check   string `json:"check"`
	Detail  string `json:"detail"`
	Step    int    `json:"step"`    // trace index, -1 for terminal-only checks
	Related int    `json:"related"` // earlier conflicting trace index, -1 if none
}

// stepRec is one executed schedule step, for timeline rendering and for
// locating the offending read/write pair of a divergence.
type stepRec struct {
	CPU     int    `json:"cpu"`
	Iter    int64  `json:"iter"`
	AddrIdx int    `json:"a"`           // footprint index touched, -1 if none
	Read    bool   `json:"r,omitempty"` // step observed the address
	Write   bool   `json:"w,omitempty"` // step published to the address
	Text    string `json:"text"`
}

// cpuState is the driver's per-CPU script cursor.
type cpuState struct {
	pc  int
	obs []obsRec // tracked loads of the current attempt
}

// machine drives one litmus test execution: a real tls.Unit and the shadow
// oracle in lockstep, one scheduled CPU step at a time.
type machine struct {
	t      *Test
	unit   *tls.Unit
	memory *mem.Memory
	sh     *shadow

	cpus      []cpuState
	committed []int64
	commObs   map[int64][]obsRec
	stl       int64
	done      bool
	div       *Divergence

	trace   []stepRec
	scratch []byte
}

// rig caches a tls.Unit (plus memory and caches) across runs with the same
// hardware shape. After a clean shutdown the unit is structurally pristine —
// generation-stamped buffers self-clean, ResetStats clears the counters, and
// only the footprint words need rewriting. Cache LRU state carries over, but
// the driver charges fixed per-op cycles and never observes latencies, so it
// cannot influence any check. A run that diverged (or was abandoned
// mid-schedule) marks the rig dirty and the next run rebuilds from scratch.
type rig struct {
	key    rigKey
	unit   *tls.Unit
	memory *mem.Memory
	dirty  bool
}

type rigKey struct {
	ncpu, storeLines, loadLines int
	chaos                       bool
}

func (t *Test) rigKey() rigKey {
	return rigKey{ncpu: t.NCPU, storeLines: t.storeLines(), loadLines: t.loadLines(), chaos: t.Chaos}
}

func newMachine(t *Test, r *rig) *machine {
	key := t.rigKey()
	// A rig abandoned mid-run (pruned schedule) is restored by shutting down
	// its head: Shutdown flushes and generation-clears every thread, leaving
	// the unit structurally pristine for ResetStats. Only a unit that has
	// already diverged is untrusted — and a divergence ends the exploration,
	// so such a rig is never offered for reuse.
	if r.unit != nil && r.key == key && r.dirty && r.unit.Active() {
		for c := 0; c < key.ncpu; c++ {
			if r.unit.IsHead(c) {
				if _, err := r.unit.Shutdown(c); err == nil {
					r.dirty = false
				}
				break
			}
		}
	} else if r.unit != nil && r.key == key && r.dirty && !r.unit.Active() {
		// Inactive means the last run reached Shutdown; structurally clean.
		r.dirty = false
	}
	if r.unit == nil || r.key != key || r.dirty {
		memory := mem.NewMemory(memWords)
		caches := mem.NewCacheSim(mem.DefaultCacheConfig(t.NCPU))
		cfg := tls.Config{
			NCPU:             t.NCPU,
			StoreBufferLines: key.storeLines,
			LoadBufferLines:  key.loadLines,
			Handlers:         tls.NewHandlers,
			ChaosNoWordValid: t.Chaos,
		}
		r.unit = tls.NewUnit(cfg, memory, caches)
		r.memory = memory
		r.key = key
	}
	r.dirty = true
	r.unit.ResetStats()
	for i := 0; i < t.Addrs; i++ {
		r.memory.Write(t.AddrOf(i), t.InitialValue(i))
	}
	m := &machine{
		t:       t,
		unit:    r.unit,
		memory:  r.memory,
		sh:      newShadow(t),
		cpus:    make([]cpuState, t.NCPU),
		commObs: make(map[int64][]obsRec),
		stl:     1,
	}
	if err := m.unit.StartAt(1, 0, 0); err != nil {
		m.diverge(CheckStepError, fmt.Sprintf("StartAt: %v", err), -1)
		return m
	}
	m.sh.startAt(1, 0, 0)
	m.postChecks()
	return m
}

func (m *machine) diverge(check, detail string, related int) {
	if m.div != nil {
		return
	}
	m.div = &Divergence{Check: check, Detail: detail, Step: len(m.trace) - 1, Related: related}
}

// runnable returns the CPUs that may take a step, in ascending CPU order.
// The rules encode the protocol's own serialization: dead threads never run;
// an overflowed thread parks until it is head (its only move is the drain); a
// phantom thread (iteration past the last script) waits to become head and
// shut the STL down; a thread done with its script waits to become head and
// commit; head-only scripted ops park the thread until it holds the token.
func (m *machine) runnable() []int {
	var r []int
	for c := 0; c < m.t.NCPU; c++ {
		iter := m.sh.th[c].iter
		if iter < 0 || !m.sh.active {
			continue
		}
		isHead := m.sh.isHead(c)
		if m.sh.storeOverflow(c) || m.sh.loadOverflow(c) {
			if isHead {
				r = append(r, c)
			}
			continue
		}
		if iter >= int64(m.t.Iters()) {
			if isHead {
				r = append(r, c)
			}
			continue
		}
		script := m.t.Scripts[iter]
		if m.cpus[c].pc >= len(script) {
			if isHead {
				r = append(r, c)
			}
			continue
		}
		if headOnly(script[m.cpus[c].pc].K) && !isHead {
			continue
		}
		r = append(r, c)
	}
	return r
}

func (m *machine) chargeRun(c int) {
	m.unit.ChargeAttempt(c, tls.ChargeRun, 1)
	m.sh.charge(c, tls.ChargeRun, 1)
}

func (m *machine) record(c int, iter int64, addrIdx int, read, write bool, text string) {
	m.trace = append(m.trace, stepRec{CPU: c, Iter: iter, AddrIdx: addrIdx, Read: read, Write: write, Text: text})
}

// relatedStep scans backwards from the end of the trace for the most recent
// earlier step that touched addrIdx with the given access direction — the
// other half of the offending read/write pair.
func (m *machine) relatedStep(addrIdx int, write bool) int {
	for i := len(m.trace) - 2; i >= 0; i-- {
		s := m.trace[i]
		if s.AddrIdx == addrIdx && ((write && s.Write) || (!write && s.Read)) {
			return i
		}
	}
	return -1
}

// onViolated resets the driver cursors of restarted CPUs: the protocol
// redirects their PCs to the STL restart point, discarding the attempt.
func (m *machine) onViolated(cpus []int) {
	for _, c := range cpus {
		m.cpus[c].pc = 0
		m.cpus[c].obs = nil
	}
}

// resetOthers resets every cursor except keep's (after a Switch reassigns
// iterations, or after kills).
func (m *machine) resetOthers(keep int) {
	for c := range m.cpus {
		if c != keep {
			m.cpus[c].pc = 0
			m.cpus[c].obs = nil
		}
	}
}

// step executes one schedule step on CPU c. The caller guarantees c was in
// runnable(). Every step ends with the full unit-versus-shadow check sweep.
func (m *machine) step(c int) {
	iter := m.sh.th[c].iter
	cs := &m.cpus[c]

	// Parked head: the forced move is the overflow drain, charged as a wait
	// cycle (the thread is stalled, not computing).
	if m.sh.storeOverflow(c) || m.sh.loadOverflow(c) {
		m.unit.ChargeAttempt(c, tls.ChargeWait, 1)
		m.sh.charge(c, tls.ChargeWait, 1)
		gotEp, err := m.unit.DrainOverflow(c)
		wantEp := m.sh.drainOverflow(c)
		text := "drain"
		if wantEp {
			text = "drain(ep)"
		}
		m.record(c, iter, -1, false, true, text)
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("DrainOverflow: %v", err), -1)
			return
		}
		if gotEp != wantEp {
			m.diverge(CheckEpisode, fmt.Sprintf("DrainOverflow new-episode: unit %v, shadow %v", gotEp, wantEp), -1)
			return
		}
		m.postChecks()
		return
	}

	// Phantom head: every scripted iteration has committed; the STL exits.
	if iter >= int64(m.t.Iters()) {
		gotKilled, err := m.unit.Shutdown(c)
		wantKilled := m.sh.shutdown(c)
		m.record(c, iter, -1, false, false, "shutdown")
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("Shutdown: %v", err), -1)
			return
		}
		if !slices.Equal(gotKilled, wantKilled) {
			m.diverge(CheckKilledSet, fmt.Sprintf("Shutdown killed: unit %v, shadow %v", gotKilled, wantKilled), -1)
			return
		}
		m.done = true
		m.postChecks()
		return
	}

	script := m.t.Scripts[iter]

	// Script finished: the head commits and picks up the next iteration.
	if cs.pc >= len(script) {
		err := m.unit.CommitEOI(c)
		m.sh.commitEOI(c)
		m.record(c, iter, -1, false, true, fmt.Sprintf("commit #%d", iter))
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("CommitEOI: %v", err), -1)
			return
		}
		m.committed = append(m.committed, iter)
		m.commObs[iter] = cs.obs
		cs.obs = nil
		cs.pc = 0
		m.postChecks()
		return
	}

	op := script[cs.pc]
	switch op.K {
	case KLoad, KLoadNV:
		m.chargeRun(c)
		a := m.t.AddrOf(op.A)
		got, _ := m.unit.Load(c, a, op.K == KLoadNV)
		want := m.sh.load(c, a, op.K == KLoad)
		m.record(c, iter, op.A, true, false, fmt.Sprintf("%s x%d=%d", op.K, op.A, got))
		if got != want {
			m.diverge(CheckLoadValue,
				fmt.Sprintf("cpu %d iter %d pc %d: Load x%d: unit %d, shadow %d", c, iter, cs.pc, op.A, got, want),
				m.relatedStep(op.A, true))
			return
		}
		if op.K == KLoad {
			cs.obs = append(cs.obs, obsRec{PC: cs.pc, AddrIdx: op.A, Val: got})
		}
		cs.pc++

	case KStore:
		m.chargeRun(c)
		a := m.t.AddrOf(op.A)
		v := op.value(iter, cs.pc)
		_, gotVio, err := m.unit.Store(c, a, v)
		wantVio := m.sh.store(c, a, v)
		text := fmt.Sprintf("St x%d=%d", op.A, v)
		if len(wantVio) > 0 {
			text += fmt.Sprintf(" viol%v", wantVio)
		}
		m.record(c, iter, op.A, false, true, text)
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("Store: %v", err), -1)
			return
		}
		if !slices.Equal(gotVio, wantVio) {
			m.diverge(CheckViolationSet,
				fmt.Sprintf("cpu %d iter %d pc %d: St x%d violated: unit %v, shadow %v", c, iter, cs.pc, op.A, gotVio, wantVio),
				m.relatedStep(op.A, false))
			return
		}
		m.onViolated(gotVio)
		cs.pc++

	case KTrack:
		m.chargeRun(c)
		a := m.t.AddrOf(op.A)
		m.unit.TrackRead(c, a)
		m.sh.track(c, a)
		m.record(c, iter, op.A, true, false, fmt.Sprintf("Track x%d", op.A))
		cs.pc++

	case KPartial:
		m.chargeRun(c)
		err := m.unit.CommitPartial(c)
		m.sh.partial(c)
		m.record(c, iter, -1, false, true, "partial")
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("CommitPartial: %v", err), -1)
			return
		}
		cs.pc++

	case KDrain:
		m.chargeRun(c)
		gotEp, err := m.unit.DrainOverflow(c)
		wantEp := m.sh.drainOverflow(c)
		text := "Drain"
		if wantEp {
			text = "Drain(ep)"
		}
		m.record(c, iter, -1, false, true, text)
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("DrainOverflow: %v", err), -1)
			return
		}
		if gotEp != wantEp {
			m.diverge(CheckEpisode, fmt.Sprintf("scripted Drain new-episode: unit %v, shadow %v", gotEp, wantEp), -1)
			return
		}
		cs.pc++

	case KVioY:
		m.chargeRun(c)
		gotVio := m.unit.ViolateFrom(iter + 1)
		wantVio := m.sh.violateFrom(iter + 1)
		m.record(c, iter, -1, false, false, fmt.Sprintf("VioY viol%v", wantVio))
		if !slices.Equal(gotVio, wantVio) {
			m.diverge(CheckViolationSet,
				fmt.Sprintf("cpu %d iter %d: ViolateFrom(%d): unit %v, shadow %v", c, iter, iter+1, gotVio, wantVio), -1)
			return
		}
		m.onViolated(gotVio)
		cs.pc++

	case KDemote:
		m.chargeRun(c)
		gotKilled, err := m.unit.DemoteSolo(c)
		wantKilled := m.sh.demote(c)
		m.record(c, iter, -1, false, false, fmt.Sprintf("Demote kill%v", wantKilled))
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("DemoteSolo: %v", err), -1)
			return
		}
		if !slices.Equal(gotKilled, wantKilled) {
			m.diverge(CheckKilledSet, fmt.Sprintf("DemoteSolo killed: unit %v, shadow %v", gotKilled, wantKilled), -1)
			return
		}
		m.onViolated(gotKilled) // dead cursors are inert, but keep them clean
		cs.pc++

	case KSwitch:
		// The multilevel-switch composite, exactly as hydra's doSwitchIn/Out
		// issue it: publish the head's partial buffer, kill the younger
		// threads, then reassign the active unit to a new STL id with the
		// head keeping its iteration.
		m.chargeRun(c)
		if err := m.unit.CommitPartial(c); err != nil {
			m.record(c, iter, -1, false, true, "Switch")
			m.diverge(CheckStepError, fmt.Sprintf("Switch/CommitPartial: %v", err), -1)
			return
		}
		m.sh.partial(c)
		gotKilled := m.unit.KillYounger(c)
		wantKilled := m.sh.killYounger(c)
		m.record(c, iter, -1, false, true, fmt.Sprintf("Switch kill%v", wantKilled))
		if !slices.Equal(gotKilled, wantKilled) {
			m.diverge(CheckKilledSet, fmt.Sprintf("Switch killed: unit %v, shadow %v", gotKilled, wantKilled), -1)
			return
		}
		m.stl++
		err := m.unit.SwitchSTL(m.stl, c, iter)
		m.sh.switchSTL(m.stl, c)
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("SwitchSTL: %v", err), -1)
			return
		}
		// Iterations were reassigned; every other cursor restarts.
		m.resetOthers(c)
		cs.pc++

	case KStop:
		// Early STL exit: the head shuts down mid-iteration. Its partial
		// attempt commits (the prefix before Stop reached memory), every
		// younger thread dies with its work discarded.
		m.chargeRun(c)
		gotKilled, err := m.unit.Shutdown(c)
		wantKilled := m.sh.shutdown(c)
		m.record(c, iter, -1, false, true, fmt.Sprintf("stop kill%v", wantKilled))
		if err != nil {
			m.diverge(CheckStepError, fmt.Sprintf("Stop/Shutdown: %v", err), -1)
			return
		}
		if !slices.Equal(gotKilled, wantKilled) {
			m.diverge(CheckKilledSet, fmt.Sprintf("Stop killed: unit %v, shadow %v", gotKilled, wantKilled), -1)
			return
		}
		m.committed = append(m.committed, iter)
		m.commObs[iter] = cs.obs
		cs.obs = nil
		m.done = true

	default:
		m.diverge(CheckStepError, fmt.Sprintf("unknown op kind %q", op.K), -1)
		return
	}
	m.postChecks()
}

// postChecks is the full unit-versus-shadow sweep run after every step:
// per-CPU iteration/head/overflow state, activation mode, committed memory
// over the footprint, and every cumulative counter. Catching drift at the
// step it first appears is what makes the explorer's state-hash pruning
// sound — no unverified difference can hide behind an equal hash.
func (m *machine) postChecks() {
	if m.div != nil {
		return
	}
	for c := 0; c < m.t.NCPU; c++ {
		if got, want := m.unit.Iteration(c), m.sh.th[c].iter; got != want {
			m.diverge(CheckIteration, fmt.Sprintf("cpu %d iteration: unit %d, shadow %d", c, got, want), -1)
			return
		}
		if got, want := m.unit.IsHead(c), m.sh.isHead(c); got != want {
			m.diverge(CheckHeadState, fmt.Sprintf("cpu %d IsHead: unit %v, shadow %v", c, got, want), -1)
			return
		}
		if got, want := m.unit.StoreOverflow(c), m.sh.storeOverflow(c); got != want {
			m.diverge(CheckOverflowPred, fmt.Sprintf("cpu %d StoreOverflow: unit %v, shadow %v", c, got, want), -1)
			return
		}
		if got, want := m.unit.LoadOverflow(c), m.sh.loadOverflow(c); got != want {
			m.diverge(CheckOverflowPred, fmt.Sprintf("cpu %d LoadOverflow: unit %v, shadow %v", c, got, want), -1)
			return
		}
	}
	if got, want := m.unit.Active(), m.sh.active; got != want {
		m.diverge(CheckHeadState, fmt.Sprintf("Active: unit %v, shadow %v", got, want), -1)
		return
	}
	if got, want := m.unit.Solo(), m.sh.soloActive(); got != want {
		m.diverge(CheckHeadState, fmt.Sprintf("Solo: unit %v, shadow %v", got, want), -1)
		return
	}
	if m.sh.active && m.unit.STL() != m.sh.stl {
		m.diverge(CheckHeadState, fmt.Sprintf("STL id: unit %d, shadow %d", m.unit.STL(), m.sh.stl), -1)
		return
	}
	for i := 0; i < m.t.Addrs; i++ {
		a := m.t.AddrOf(i)
		if got, want := m.memory.Read(a), m.sh.mem[a]; got != want {
			m.diverge(CheckMemory, fmt.Sprintf("memory x%d: unit %d, shadow %d", i, got, want), m.relatedStep(i, true))
			return
		}
	}
	if m.unit.Stats != m.sh.stats {
		m.diverge(CheckStats, fmt.Sprintf("StateStats: unit %+v, shadow %+v", m.unit.Stats, m.sh.stats), -1)
		return
	}
	if m.unit.Commits != m.sh.commits || m.unit.Violations != m.sh.violations || m.unit.Overflows != m.sh.overflows {
		m.diverge(CheckCounters, fmt.Sprintf("commits/violations/overflows: unit %d/%d/%d, shadow %d/%d/%d",
			m.unit.Commits, m.unit.Violations, m.unit.Overflows, m.sh.commits, m.sh.violations, m.sh.overflows), -1)
		return
	}
	if m.unit.MaxStoreLines != m.sh.maxStore || m.unit.MaxLoadLines != m.sh.maxLoad {
		m.diverge(CheckCounters, fmt.Sprintf("max buffer lines: unit %d/%d, shadow %d/%d",
			m.unit.MaxStoreLines, m.unit.MaxLoadLines, m.sh.maxStore, m.sh.maxLoad), -1)
		return
	}
	gotAvgS, gotAvgL := m.unit.AvgBufferLines()
	wantAvgS, wantAvgL := m.sh.avgBufferLines()
	if gotAvgS != wantAvgS || gotAvgL != wantAvgL {
		m.diverge(CheckCounters, fmt.Sprintf("avg buffer lines: unit %g/%g, shadow %g/%g",
			gotAvgS, gotAvgL, wantAvgS, wantAvgL), -1)
		return
	}
}

// finish runs the terminal sequential-consistency checks after a clean
// shutdown: committed-iteration sequence, final memory, per-committed
// tracked-load observations, and exact cycle conservation.
func (m *machine) finish() {
	if m.div != nil || !m.done {
		return
	}
	seq := runSeq(m.t)
	if !slices.Equal(m.committed, seq.committed) {
		m.diverge(CheckCommitted, fmt.Sprintf("committed iterations: tls %v, sequential %v", m.committed, seq.committed), -1)
		return
	}
	for i := 0; i < m.t.Addrs; i++ {
		if got, want := m.memory.Read(m.t.AddrOf(i)), seq.mem[i]; got != want {
			m.diverge(CheckFinalMemory, fmt.Sprintf("final memory x%d: tls %d, sequential %d", i, got, want), m.relatedStep(i, true))
			return
		}
	}
	for _, iter := range m.committed {
		got, want := m.commObs[iter], seq.obs[iter]
		if len(got) != len(want) {
			m.diverge(CheckObserved, fmt.Sprintf("iteration %d observed %d tracked loads, sequential %d", iter, len(got), len(want)), -1)
			return
		}
		for j := range got {
			if got[j] != want[j] {
				m.diverge(CheckObserved,
					fmt.Sprintf("iteration %d pc %d: observed x%d=%d, sequential %d", iter, got[j].PC, got[j].AddrIdx, got[j].Val, want[j].Val),
					m.relatedStep(got[j].AddrIdx, true))
				return
			}
		}
	}
	// Cycle conservation: every charged cycle and handler cost — and nothing
	// else — must land in exactly one Figure-10 bucket.
	if total, want := m.unit.Stats.Total(), m.sh.chargedWork+m.sh.chargedHandlers; total != want {
		m.diverge(CheckStats, fmt.Sprintf("cycle conservation: buckets total %d, charged %d", total, want), -1)
		return
	}
	for c := range m.sh.th {
		t := &m.sh.th[c]
		if t.run != 0 || t.wait != 0 || t.overhead != 0 {
			m.diverge(CheckStats, fmt.Sprintf("cpu %d has unflushed attempt cycles at shutdown: %d/%d/%d", c, t.run, t.wait, t.overhead), -1)
			return
		}
	}
}

// hash digests the full abstract state — unit structural snapshot, shadow,
// and driver cursors/observations/committed history — for revisit pruning.
func (m *machine) hash() uint64 {
	b := m.scratch[:0]
	b = m.unit.DebugAppendState(b)
	b = m.sh.appendState(b)
	for c := range m.cpus {
		cs := &m.cpus[c]
		b = binary.LittleEndian.AppendUint32(b, uint32(cs.pc))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(cs.obs)))
		for _, o := range cs.obs {
			b = binary.LittleEndian.AppendUint32(b, uint32(o.PC))
			b = binary.LittleEndian.AppendUint32(b, uint32(o.AddrIdx))
			b = binary.LittleEndian.AppendUint64(b, uint64(o.Val))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.committed)))
	for _, iter := range m.committed {
		b = binary.LittleEndian.AppendUint64(b, uint64(iter))
		obs := m.commObs[iter]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(obs)))
		for _, o := range obs {
			b = binary.LittleEndian.AppendUint32(b, uint32(o.PC))
			b = binary.LittleEndian.AppendUint32(b, uint32(o.AddrIdx))
			b = binary.LittleEndian.AppendUint64(b, uint64(o.Val))
		}
	}
	m.scratch = b
	return fnv64(b)
}

// counterexample packages the machine's divergence for persistence/replay.
func (m *machine) counterexample(schedule []int) *Counterexample {
	if m.div == nil {
		return nil
	}
	return &Counterexample{
		Version:  1,
		Check:    m.div.Check,
		Detail:   m.div.Detail,
		Test:     *m.t,
		Schedule: append([]int(nil), schedule...),
		Timeline: renderTimeline(m.t, m.trace, m.div),
	}
}
