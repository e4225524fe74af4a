// Package progen is the differential speculation conformance suite's
// program generator: a seeded, fully deterministic source of well-formed
// Jrpm programs biased toward the paper's STL decomposition shapes — nested
// counted loops with loop-carried and loop-independent dependences, aliased
// array and static accesses, helper calls, early exits, reductions,
// synchronized blocks and exception handlers.
//
// progen keeps every generated program as an explicit, serializable tree
// (Prog). That representation is what makes the rest of the suite possible:
//
//   - the same seed always produces the same tree, and the tree lowers to a
//     byte-identical bytecode program (Asm), so run verdicts are reproducible;
//   - the delta-debugging shrinker (shrink.go) edits the tree directly and
//     re-checks after every edit, minimizing any divergent program to a
//     small reproducer;
//   - reproducers round-trip through JSON (repro.go), so a divergence found
//     by jrpm fuzz is re-runnable forever from testdata/repros/.
//
// The differential harness itself lives in harness.go: it runs each program
// through the AST interpreter oracle, the sequential VM, the speculative
// Hydra pipeline, a fault-injected speculative run and a guard-demoted solo
// run, and cross-checks outputs, final statics and metamorphic invariants.
package progen

import "fmt"

// Config bounds generation. All sizes are upper bounds; the generator draws
// actual sizes per seed.
type Config struct {
	Units        int   // top-level loops in main
	MaxBodyStmts int   // statements per loop body
	MaxDepth     int   // loop nesting depth (1 = no nesting)
	MaxExprDepth int   // expression tree depth
	Locals       int   // scalar locals
	Statics      int   // static field words
	Arrays       int   // arrays
	ArrayLen     int64 // words per array
	LoopIters    int64 // nominal iterations per loop
}

// DefaultConfig produces programs in the few-hundred-thousand simulated
// cycle range — large enough for the analyzer to select STLs, small enough
// to check thousands of seeds.
func DefaultConfig() Config {
	return Config{
		Units:        3,
		MaxBodyStmts: 5,
		MaxDepth:     2,
		MaxExprDepth: 3,
		Locals:       5,
		Statics:      3,
		Arrays:       2,
		ArrayLen:     48,
		LoopIters:    40,
	}
}

// QuickConfig is the small profile used by go test fuzz targets and the CI
// smoke job, where per-seed latency matters more than program richness.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Units = 2
	c.MaxBodyStmts = 4
	c.ArrayLen = 24
	c.LoopIters = 24
	return c
}

// StressConfig is the large profile for long jrpm fuzz soaks.
func StressConfig() Config {
	c := DefaultConfig()
	c.Units = 4
	c.MaxBodyStmts = 7
	c.MaxDepth = 3
	c.ArrayLen = 96
	c.LoopIters = 72
	return c
}

// ConfigByName maps the jrpm fuzz -size flag to a profile.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "quick":
		return QuickConfig(), nil
	case "small", "default":
		return DefaultConfig(), nil
	case "stress", "large":
		return StressConfig(), nil
	}
	return Config{}, fmt.Errorf("progen: unknown size %q (want quick, small, stress or large)", name)
}

// StmtKind enumerates statement shapes. The shapes mirror the dependence
// classes of the paper's §4.2: independent recomputes, reductions, carried
// chains, memory-carried array traffic, shared statics, calls, conditionals,
// nested loops, early exits, synchronized stores and try/catch.
type StmtKind int

// Statement kinds.
const (
	SAssign     StmtKind = iota // local[Dst] = E
	SReduce                     // local[Dst] += E (associative reduction shape)
	SCarry                      // local[Dst] = (local[Dst]*K + E) mod M
	SArrStore                   // array[Arr][reduce(Idx)] = E
	SStatStore                  // static[Dst] = E
	SCallMix                    // local[Dst] = mix(E, E2)
	SFloat                      // local[Dst] = int(float(E & 0xfff) * K)
	SIf                         // if cond { Body } else { Else }
	SLoop                       // for fresh var in [0, Iters) { Body }
	SBreakIf                    // if cond { break }    (early exit)
	SContinueIf                 // if cond { continue }
	SSync                       // synchronized(mon) { array[Arr][reduce(Idx)] = E }
	STry                        // try { local[Dst] = array[Arr][Idx - K] } catch { local[Dst] = -1 }
	numStmtKinds
)

// CondKind enumerates comparison shapes for SIf/SBreakIf/SContinueIf.
type CondKind int

// Condition kinds over (CondA, CondB).
const (
	CLt     CondKind = iota // A < B
	CGe                     // A >= B
	CEqMod3                 // (A & 0xffff) % 3 == 0
	CAndNe                  // A <= B && A != 7
	CEqK                    // A == B (used for deterministic early exits)
	numCondKinds
)

// Stmt is one statement node. Unused fields are zero; the JSON encoding
// omits them so reproducers stay small.
type Stmt struct {
	Kind  StmtKind `json:"k"`
	Dst   int      `json:"d,omitempty"`  // local or static index (mod-mapped)
	Arr   int      `json:"a,omitempty"`  // array selector (mod-mapped)
	K     int64    `json:"c,omitempty"`  // constant (carry multiplier, float scale, try offset)
	M     int64    `json:"m,omitempty"`  // constant (carry modulus)
	Iters int64    `json:"n,omitempty"`  // SLoop iteration count
	Cond  CondKind `json:"q,omitempty"`  // condition shape
	CondA *Expr    `json:"ca,omitempty"` // condition operands
	CondB *Expr    `json:"cb,omitempty"`
	Idx   *Expr    `json:"i,omitempty"` // array index expression
	E     *Expr    `json:"e,omitempty"` // value expression
	E2    *Expr    `json:"f,omitempty"`
	Body  []*Stmt  `json:"b,omitempty"`
	Else  []*Stmt  `json:"el,omitempty"`
}

// ExprKind enumerates expression nodes.
type ExprKind int

// Expression kinds. Leaves first, then binary operators (A, B operands).
const (
	EConst   ExprKind = iota // K
	ELocal                   // local[K mod Locals]
	ELoopVar                 // enclosing loop variable selected by K (innermost = 0)
	EStatic                  // static[K mod Statics]
	EArrLoad                 // array[K mod Arrays][reduce(A)]
	EAdd
	ESub
	EMul // (A & 0xffff) * (B & 0xff): overflow-masked
	EDiv // A / ((B & 15) + 1): divisor forced nonzero
	EXor
	EAnd
	EShr // A >> (B & 7)
	EMax
	numExprKinds
)

// Expr is one expression node.
type Expr struct {
	Kind ExprKind `json:"k"`
	K    int64    `json:"c,omitempty"`
	A    *Expr    `json:"a,omitempty"`
	B    *Expr    `json:"b,omitempty"`
}

// ProbeKind enumerates epilogue output probes.
type ProbeKind int

// Probe kinds. PArrSum prints a multiplicative checksum over a whole array
// (heap state surfaced through the output stream); PArrElem prints a single
// element — the shrinker converts sums to elements to pare reproducers down.
const (
	PLocal ProbeKind = iota
	PStatic
	PArrSum
	PArrElem
)

// Probe is one epilogue print.
type Probe struct {
	Kind ProbeKind `json:"k"`
	K    int       `json:"i"`           // local / static / array index
	Idx  int64     `json:"x,omitempty"` // PArrElem element index
}

// Prog is a complete generated program: prologue sizes and initial values,
// the statement tree of main, and the epilogue probes. Every field is
// serializable; Lower turns it into a frontend AST and verified bytecode.
type Prog struct {
	Seed     int64  `json:"seed"`
	Name     string `json:"name"`
	Locals   int    `json:"locals"`
	Statics  int    `json:"statics"`
	Arrays   int    `json:"arrays"`
	ArrayLen int64  `json:"arrayLen"`

	LocalInit  []int64 `json:"localInit"`
	StaticInit []int64 `json:"staticInit"`
	// Prefill[k] fills array k with (j*PrefillMul[k])%1009 in the prologue;
	// false leaves it zeroed (the shrinker's first win).
	Prefill    []bool  `json:"prefill"`
	PrefillMul []int64 `json:"prefillMul"`

	HelperK1 int64 `json:"helperK1"`
	HelperK2 int64 `json:"helperK2"`

	Body   []*Stmt `json:"body"`
	Probes []Probe `json:"probes"`
}

// rng is a splitmix64 sequence: deterministic across hosts and Go versions
// by construction (unlike math/rand, whose stability is only conventional).
type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// i63 returns a uniform draw in [0, n).
func (r *rng) i63(n int64) int64 { return int64(r.next() % uint64(n)) }

// gen carries generation state.
type gen struct {
	r   *rng
	cfg Config
	p   *Prog
}

// Generate builds the program tree for a seed. The same (seed, cfg) always
// yields an identical tree, hence identical bytecode and identical verdicts.
func Generate(seed int64, cfg Config) *Prog {
	g := &gen{r: newRng(seed), cfg: cfg}
	p := &Prog{
		Seed:     seed,
		Name:     "progen",
		Locals:   2 + g.r.intn(cfg.Locals-1),
		Statics:  1 + g.r.intn(cfg.Statics),
		Arrays:   1 + g.r.intn(cfg.Arrays),
		ArrayLen: cfg.ArrayLen,
		HelperK1: g.r.i63(97) + 3,
		HelperK2: g.r.i63(31) + 1,
	}
	g.p = p
	for i := 0; i < p.Locals; i++ {
		p.LocalInit = append(p.LocalInit, g.r.i63(1000)-500)
	}
	for i := 0; i < p.Statics; i++ {
		p.StaticInit = append(p.StaticInit, g.r.i63(1000)-500)
	}
	for i := 0; i < p.Arrays; i++ {
		p.Prefill = append(p.Prefill, true)
		p.PrefillMul = append(p.PrefillMul, g.r.i63(97)+3)
	}
	units := 1 + g.r.intn(cfg.Units)
	for u := 0; u < units; u++ {
		p.Body = append(p.Body, g.loop(1))
	}
	// Default epilogue: checksum everything — locals, statics, and whole
	// arrays — so silent state corruption anywhere surfaces in the output.
	for i := 0; i < p.Locals; i++ {
		p.Probes = append(p.Probes, Probe{Kind: PLocal, K: i})
	}
	for i := 0; i < p.Statics; i++ {
		p.Probes = append(p.Probes, Probe{Kind: PStatic, K: i})
	}
	for i := 0; i < p.Arrays; i++ {
		p.Probes = append(p.Probes, Probe{Kind: PArrSum, K: i})
	}
	return p
}

// loop generates one counted loop at the given nesting depth.
func (g *gen) loop(depth int) *Stmt {
	s := &Stmt{
		Kind:  SLoop,
		Iters: g.cfg.LoopIters/2 + g.r.i63(g.cfg.LoopIters),
	}
	n := 1 + g.r.intn(g.cfg.MaxBodyStmts)
	for i := 0; i < n; i++ {
		s.Body = append(s.Body, g.stmt(depth))
	}
	// Bias: a third of loops get a nested inner loop (multilevel shapes).
	if depth < g.cfg.MaxDepth && g.r.intn(3) == 0 {
		inner := &Stmt{Kind: SLoop, Iters: 4 + g.r.i63(8)}
		inner.Body = append(inner.Body, g.stmt(depth+1))
		s.Body = append(s.Body, inner)
	}
	// Bias: one loop in six exits early at a deterministic iteration,
	// exercising STL shutdown from a non-final iteration.
	if g.r.intn(6) == 0 {
		s.Body = append(s.Body, &Stmt{
			Kind: SBreakIf, Cond: CEqK,
			CondA: &Expr{Kind: ELoopVar},
			CondB: &Expr{Kind: EConst, K: s.Iters/2 + g.r.i63(s.Iters/2+1)},
		})
	}
	return s
}

// stmt generates one loop-body statement, weighted toward the dependence
// shapes that stress speculation hardest.
func (g *gen) stmt(depth int) *Stmt {
	switch g.r.intn(12) {
	case 0, 1: // array store — the main memory-dependence source
		return &Stmt{Kind: SArrStore, Arr: g.r.intn(g.p.Arrays),
			Idx: g.index(), E: g.expr(g.cfg.MaxExprDepth)}
	case 2: // reduction
		return &Stmt{Kind: SReduce, Dst: g.r.intn(g.p.Locals), E: g.expr(2)}
	case 3: // carried chain (unoptimizable register dependence)
		return &Stmt{Kind: SCarry, Dst: g.r.intn(g.p.Locals),
			K: g.r.i63(29) + 3, M: 9973, E: g.expr(1)}
	case 4: // shared static store — a dependence every CPU sees
		return &Stmt{Kind: SStatStore, Dst: g.r.intn(g.p.Statics), E: g.expr(2)}
	case 5: // helper call
		return &Stmt{Kind: SCallMix, Dst: g.r.intn(g.p.Locals),
			E: g.expr(1), E2: g.expr(1)}
	case 6: // conditional update
		s := &Stmt{Kind: SIf}
		s.Cond, s.CondA, s.CondB = g.cond()
		s.Body = []*Stmt{{Kind: SAssign, Dst: g.r.intn(g.p.Locals), E: g.expr(2)}}
		if g.r.intn(2) == 0 {
			s.Else = []*Stmt{{Kind: SAssign, Dst: g.r.intn(g.p.Locals), E: g.expr(1)}}
		}
		return s
	case 7: // float round trip (bit-exact in interpreter and VM)
		return &Stmt{Kind: SFloat, Dst: g.r.intn(g.p.Locals),
			K: g.r.i63(7) + 1, E: g.expr(1)}
	case 8: // synchronized array update (lock elision under speculation)
		return &Stmt{Kind: SSync, Arr: g.r.intn(g.p.Arrays),
			Idx: g.index(), E: g.expr(2)}
	case 9: // try/catch around a possibly out-of-range access
		return &Stmt{Kind: STry, Dst: g.r.intn(g.p.Locals),
			Arr: g.r.intn(g.p.Arrays), K: g.r.i63(3), Idx: g.index()}
	case 10: // rare continue (skips the rest of the iteration)
		if depth >= 1 && g.r.intn(2) == 0 {
			c, a, b := g.cond()
			return &Stmt{Kind: SContinueIf, Cond: c, CondA: a, CondB: b}
		}
		fallthrough
	default: // plain recompute
		return &Stmt{Kind: SAssign, Dst: g.r.intn(g.p.Locals),
			E: g.expr(g.cfg.MaxExprDepth)}
	}
}

// index generates an array index expression. The draw is biased toward
// shapes that make iterations share cache lines or whole words — the access
// patterns that make word-valid bits, forwarding and violation broadcast
// earn their keep.
func (g *gen) index() *Expr {
	iv := &Expr{Kind: ELoopVar}
	switch g.r.intn(5) {
	case 0: // sequential: distinct word per iteration (loop-independent)
		return &Expr{Kind: EAdd, A: iv, B: &Expr{Kind: EConst, K: g.r.i63(8)}}
	case 1: // strided: neighbouring iterations share a 4-word line
		return &Expr{Kind: EMul, A: iv, B: &Expr{Kind: EConst, K: g.r.i63(3) + 2}}
	case 2: // neighbour: iteration i touches the word iteration i±d wrote
		return &Expr{Kind: ESub, A: iv, B: &Expr{Kind: EConst, K: g.r.i63(3) + 1}}
	case 3: // single hot word: every iteration collides
		return &Expr{Kind: EConst, K: g.r.i63(g.p.ArrayLen)}
	default: // arbitrary expression
		return g.expr(2)
	}
}

func (g *gen) cond() (CondKind, *Expr, *Expr) {
	k := CondKind(g.r.intn(int(numCondKinds) - 1)) // CEqK reserved for breaks
	return k, g.expr(1), g.expr(1)
}

// expr generates an integer expression over locals, loop variables, statics,
// array reads and constants.
func (g *gen) expr(depth int) *Expr {
	if depth <= 0 || g.r.intn(3) == 0 {
		switch g.r.intn(6) {
		case 0:
			return &Expr{Kind: EConst, K: g.r.i63(200) - 100}
		case 1:
			return &Expr{Kind: ELoopVar, K: int64(g.r.intn(2))}
		case 2:
			return &Expr{Kind: EStatic, K: int64(g.r.intn(g.p.Statics))}
		case 3:
			return &Expr{Kind: EArrLoad, K: int64(g.r.intn(g.p.Arrays)), A: g.index()}
		default:
			return &Expr{Kind: ELocal, K: int64(g.r.intn(g.p.Locals))}
		}
	}
	k := ExprKind(int(EAdd) + g.r.intn(int(numExprKinds-EAdd)))
	return &Expr{Kind: k, A: g.expr(depth - 1), B: g.expr(depth - 1)}
}
