package main

import "jrpm/internal/workloads"

// rng is a splitmix64 sequence, so inputs depend only on the seed and the
// stream, never on math/rand's implementation.
type rng struct{ s uint64 }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newRng starts an independent sequence for one use of the seed.
func newRng(seed int64, stream uint64) *rng {
	return &rng{s: splitmix(uint64(seed)) ^ splitmix(stream+0x5851f42d4c957f2d)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Input streams. Each use of the seed draws from its own stream so that,
// for example, lengthening a run never changes the programs it starts with.
const (
	streamTable3Order = iota + 1
	streamProgen
	streamProgenWarm
	streamFleetMix
	streamFleetProgen
)

// table3Order returns the order in which pass number pass runs the Table 3
// suite: a seeded shuffle of workloads.All().
func table3Order(seed int64, pass int) []*workloads.Workload {
	all := workloads.All()
	r := newRng(seed, streamTable3Order<<32|uint64(pass))
	for i := len(all) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		all[i], all[j] = all[j], all[i]
	}
	return all
}

// progenSeed returns the generator seed of the i-th program of a stream.
// Distinct indices give distinct seeds, so programs never repeat in a run.
func progenSeed(seed int64, stream uint64, i int) int64 {
	return int64(splitmix(uint64(newRng(seed, stream).s)+uint64(i)) >> 1)
}

// fleetKind classifies one fleet-mix submission.
type fleetKind int

const (
	kindPopular  fleetKind = iota // a popular Table 3 name: a cache read
	kindFresh                     // a fresh progen source: a miss
	kindDiagnose                  // a fresh progen source with diagnose:true
)

func (k fleetKind) String() string {
	return [...]string{"popular", "fresh", "diagnose"}[k]
}

// The share of each fleet-mix kind; the rest are kindFresh. Cache reads are
// a clear majority so that the median job is a cache read on every seed.
const (
	popularShare  = 0.65
	diagnoseShare = 0.03
)

// fleetPick is what one fleet-mix job submits.
type fleetPick struct {
	Kind     fleetKind
	Workload string // Table 3 name for kindPopular
	Seed     int64  // progen seed for kindFresh and kindDiagnose
}

// fleetPickAt draws job i of a fleet-mix run. Table 3 names follow a
// Zipf(1) popularity in Table 3 order, so every seed sees the same
// popularity; progen seeds are distinct for distinct i.
func fleetPickAt(seed int64, i int) fleetPick {
	r := newRng(seed, streamFleetMix<<32|uint64(i))
	u, v := r.float(), r.float()
	switch {
	case u < popularShare:
		all := workloads.All()
		total := 0.0
		for k := range all {
			total += 1 / float64(k+1)
		}
		for k, w := range all {
			if v -= 1 / float64(k+1) / total; v < 0 {
				return fleetPick{Kind: kindPopular, Workload: w.Name}
			}
		}
		return fleetPick{Kind: kindPopular, Workload: all[len(all)-1].Name}
	case u < popularShare+diagnoseShare:
		return fleetPick{Kind: kindDiagnose, Seed: progenSeed(seed, streamFleetProgen, i)}
	default:
		return fleetPick{Kind: kindFresh, Seed: progenSeed(seed, streamFleetProgen, i)}
	}
}
