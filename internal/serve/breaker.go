package serve

import "sync"

// BreakerConfig parameterizes the per-workload circuit breaker. The breaker
// is the service-level analogue of the tls.Guard violation-storm guard and
// reuses its schedule: a workload that fails Trip consecutive jobs is
// "decertified" (the circuit opens), the next Backoff submissions are shed
// without consuming simulation capacity, then exactly one probe job is
// admitted. A successful probe closes the circuit; a failed probe doubles
// the backoff up to MaxBackoff, exactly like the guard's re-probe schedule.
//
// The schedule is counted in submissions, not wall-clock time, so breaker
// behaviour is deterministic under test and under replay.
type BreakerConfig struct {
	// Trip is the number of consecutive job failures that open the circuit
	// (<=0 = default 3).
	Trip int
	// Backoff is the number of shed submissions before the first probe; it
	// doubles after every failed probe (<=0 = default 4).
	Backoff int64
	// MaxBackoff caps the doubling (<=0 = default 64).
	MaxBackoff int64
}

// DefaultBreakerConfig mirrors the guard's default shape at service scale.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Trip: 3, Backoff: 4, MaxBackoff: 64}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.Trip <= 0 {
		c.Trip = d.Trip
	}
	if c.Backoff <= 0 {
		c.Backoff = d.Backoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = d.MaxBackoff
	}
	return c
}

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

// Breaker tracks one key — a workload on `jrpm serve`, a replica shard on the
// fleet router. It is exported so the fleet layer reuses the same tested
// schedule per shard. Calls are serialized by the server's
// submit path and the worker completion path, so it carries its own lock.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	BreakerStats
	streak  int   // consecutive failures while closed
	backoff int64 // shed submissions before the next probe
	wait    int64 // countdown of shed submissions remaining
	probing bool  // one probe job is in flight
}

func NewBreaker(key string, cfg BreakerConfig) *Breaker {
	b := &Breaker{cfg: cfg.withDefaults()}
	b.Key = key
	return b
}

// Admit decides whether a submission for this key may proceed.
// While open, submissions are shed until the backoff expires; then exactly
// one probe is admitted (subsequent submissions shed until the probe
// resolves).
func (b *Breaker) Admit() bool {
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
func (b *Breaker) OnResult(success, cancelled bool) {
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
		b.backoff *= 2
		if b.backoff > b.cfg.MaxBackoff {
			b.backoff = b.cfg.MaxBackoff
		}
		b.wait = b.backoff
		return
	}
	b.streak++
	if b.streak >= b.cfg.Trip {
		b.Open = true
		b.Trips++
		b.backoff = b.cfg.Backoff
		b.wait = b.backoff
		b.probing = false
	}
}

// Stats snapshots the breaker state.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.BreakerStats
}

// RetryAfterSubmissions estimates how many more submissions will be shed
// before a probe is admitted (0 when closed or probe-ready). The HTTP layer
// maps it to a Retry-After hint.
func (b *Breaker) RetryAfterSubmissions() int64 {
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
