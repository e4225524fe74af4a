package serve

import "sync"

// The per-workload circuit breaker is the service-level analogue of the
// tls.Guard violation-storm guard and reuses its schedule: a workload that
// fails breakerTrip consecutive jobs is "decertified" (the circuit opens),
// the next breakerBackoff submissions are shed without consuming simulation
// capacity, then exactly one probe job is admitted. A successful probe
// closes the circuit; a failed probe doubles the backoff up to
// breakerMaxBackoff, exactly like the guard's re-probe schedule.
//
// The schedule is counted in submissions, not wall-clock time, so breaker
// behaviour is deterministic under test and under replay.
const (
	breakerTrip       = 3  // consecutive job failures that open the circuit
	breakerBackoff    = 4  // shed submissions before the first probe
	breakerMaxBackoff = 64 // cap on the doubling backoff
)

// BreakerStats is one workload key's breaker state, exposed for reporting.
type BreakerStats struct {
	Key       string `json:"key"`
	Open      bool   `json:"open"`
	Failures  int64  `json:"failures"` // lifetime failed jobs
	Successes int64  `json:"successes"`
	Shed      int64  `json:"shed"`   // submissions rejected while open
	Trips     int64  `json:"trips"`  // times the circuit opened
	Probes    int64  `json:"probes"` // probe jobs admitted while open
	Recloses  int64  `json:"recloses"`
}

// breaker tracks one workload key. Calls are serialized by the server's
// submit path and the worker completion path, so it carries its own lock.
type breaker struct {
	mu sync.Mutex

	BreakerStats
	streak  int   // consecutive failures while closed
	backoff int64 // shed submissions before the next probe
	wait    int64 // countdown of shed submissions remaining
	probing bool  // one probe job is in flight
}

func newBreaker(key string) *breaker {
	b := &breaker{}
	b.Key = key
	return b
}

// Admit decides whether a submission for this key may proceed.
// While open, submissions are shed until the backoff expires; then exactly
// one probe is admitted (subsequent submissions shed until the probe
// resolves).
func (b *breaker) Admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.Open {
		return true
	}
	if b.probing {
		b.Shed++
		return false // one probe at a time
	}
	if b.wait > 0 {
		b.wait--
		b.Shed++
		return false
	}
	b.probing = true
	b.Probes++
	return true
}

// OnResult records a finished job for this key. Cancellations are neutral:
// they resolve a probe (so the circuit does not stay wedged behind a probe
// job the client abandoned) but neither trip nor close the circuit.
func (b *breaker) OnResult(success, cancelled bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cancelled {
		if b.probing {
			b.probing = false
			b.wait = b.backoff // re-arm the same backoff, no doubling
		}
		return
	}
	if success {
		b.Successes++
		b.streak = 0
		if b.Open {
			b.Open = false
			b.Recloses++
		}
		b.probing = false
		return
	}
	b.Failures++
	if b.Open {
		// Failed probe (or a straggler failure while open): back off harder.
		b.probing = false
		b.backoff = min(2*b.backoff, breakerMaxBackoff)
		b.wait = b.backoff
		return
	}
	b.streak++
	if b.streak >= breakerTrip {
		b.Open = true
		b.Trips++
		b.backoff = breakerBackoff
		b.wait = b.backoff
		b.probing = false
	}
}

// Stats snapshots the breaker state.
func (b *breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.BreakerStats
}

// RetryAfterSubmissions estimates how many more submissions will be shed
// before a probe is admitted (0 when closed or probe-ready). The HTTP layer
// maps it to a Retry-After hint.
func (b *breaker) RetryAfterSubmissions() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.Open {
		return 0
	}
	if b.probing {
		return 1
	}
	return b.wait
}
