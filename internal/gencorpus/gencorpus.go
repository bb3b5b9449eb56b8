// Package gencorpus is a seeded, deterministic MinC workload generator: the
// corpus-at-scale lever of the repository. It promotes the random-program
// generator that began life inside the differential property tests into a
// first-class corpus source with controllable *branch character* — the axis
// the workload-characterization literature shows branch predictability
// varies along. Five mixes are supported:
//
//	loop-heavy       deeply nested bounded counting loops and array scans
//	pointer-chasing  heap list building and null-test traversal
//	recursion-heavy  linear and tree recursion with explicit depth fuel
//	call-dense       many small helpers plus library-routine calls
//	mixed            a blend of all of the above
//
// Every generated program is always-terminating *by construction*:
//
//   - loops are only ever the canonical bounded counting form, with a fresh
//     induction variable that body statements can never reassign, and with
//     per-nesting trip-count caps so the product of enclosing trip counts
//     is bounded;
//   - recursion always decrements an explicit depth argument checked by a
//     base case, so linear recursion is O(depth) and tree recursion is
//     O(2^depth) with depth capped at 7;
//   - helper calls follow a strictly acyclic order (helper h may only call
//     helpers with a smaller index), so call chains are finite, and no
//     calls are emitted inside helper loop bodies;
//   - list traversals walk acyclic lists built by prepending, advancing the
//     cursor on every iteration;
//   - expressions exclude division and variable modulus, so no generated
//     program can trap, and array indices are reduced modulo the array
//     length before use.
//
// Generation is a pure function of (seed, mix, options): the same inputs
// yield byte-identical source, input vectors, and run seeds on every
// machine, under every GOMAXPROCS setting, on every run. The package-level
// tests pin this, and the artifact cache and streaming trainer rely on it.
package gencorpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// Mix selects the branch-character profile of a generated program.
type Mix int

// The supported branch-character mixes.
const (
	LoopHeavy Mix = iota
	PointerChasing
	RecursionHeavy
	CallDense
	Mixed

	numMixes = int(Mixed) + 1
)

// String names the mix the way the CLI spells it.
func (m Mix) String() string {
	switch m {
	case LoopHeavy:
		return "loop-heavy"
	case PointerChasing:
		return "pointer-chasing"
	case RecursionHeavy:
		return "recursion-heavy"
	case CallDense:
		return "call-dense"
	case Mixed:
		return "mixed"
	}
	return fmt.Sprintf("mix(%d)", int(m))
}

// ParseMix parses a CLI mix name.
func ParseMix(s string) (Mix, error) {
	for _, m := range AllMixes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("gencorpus: unknown mix %q (have loop-heavy, pointer-chasing, recursion-heavy, call-dense, mixed)", s)
}

// AllMixes returns every mix in declaration order.
func AllMixes() []Mix {
	return []Mix{LoopHeavy, PointerChasing, RecursionHeavy, CallDense, Mixed}
}

// Options tunes generation for special callers. The zero value is the
// corpus default.
type Options struct {
	// Prints interleaves __print statements so output-differential tests
	// (compiler A vs compiler B, micro-op vs reference interpreter) have
	// observable intermediate state beyond the final return value.
	Prints bool
	// Stmts overrides the top-level statement count of main (default 6-9,
	// seed-dependent).
	Stmts int
}

// Program is one generated workload: a MinC source with pinned,
// reproducible inputs.
type Program struct {
	// Name is unique within a Spec ("gen-s<seed>-<index>-<mix>").
	Name string
	// Mix is the branch-character profile the program was drawn from.
	Mix Mix
	// Seed is the exact generator seed that produced Source.
	Seed int64
	// Source is the MinC program text (stdlib not included; the corpus
	// compile path links it, exactly as for the real programs).
	Source string
	// Input is the reproducible input vector served by __input.
	Input []int64
	// RunSeed seeds the deterministic __rand stream for profiling runs.
	RunSeed uint64
}

// Entry adapts the program to a corpus entry, so generated programs flow
// through the exact parse -> compile -> uop-trace -> featurize -> train
// pipeline the 46 real programs use.
func (p Program) Entry() corpus.Entry {
	return corpus.Entry{
		Name:     p.Name,
		Suite:    corpus.SuiteGenerated,
		Language: ir.LangC,
		Source:   p.Source,
		Input:    p.Input,
		Seed:     p.RunSeed,
		About:    fmt.Sprintf("generated %s workload (seed %d)", p.Mix, p.Seed),
	}
}

// Generate builds one program from a seed and a mix with default options.
func Generate(seed int64, mix Mix) Program {
	return GenerateOpts(seed, mix, Options{})
}

// GenerateOpts builds one program from a seed, a mix, and options. It is a
// pure function: identical arguments produce an identical Program.
func GenerateOpts(seed int64, mix Mix, opt Options) Program {
	g := &gen{
		rng: rand.New(rand.NewSource(seed)),
		mix: mix,
		opt: opt,
		w:   mixWeights(mix),
	}
	src := g.program()
	input := make([]int64, 3)
	for i := range input {
		input[i] = int64(g.rng.Intn(41) - 8)
	}
	return Program{
		Name:    fmt.Sprintf("gen-s%d-%s", seed, mix),
		Mix:     mix,
		Seed:    seed,
		Source:  src,
		Input:   input,
		RunSeed: uint64(g.rng.Int63())>>1 + 1,
	}
}

// Spec describes a generated corpus slice: N programs whose per-program
// seeds derive from Seed, cycling round-robin through Mixes.
type Spec struct {
	// Seed is the base seed; program i uses splitmix64(Seed, i).
	Seed int64
	// N is the number of programs.
	N int
	// Mixes cycles per program; empty means AllMixes().
	Mixes []Mix
	// Opt applies to every program.
	Opt Options
}

// mixes resolves the round-robin mix list.
func (s Spec) mixes() []Mix {
	if len(s.Mixes) == 0 {
		return AllMixes()
	}
	return s.Mixes
}

// ProgramSeed returns the generator seed of program i — exposed so tools
// can regenerate a single program of a spec without materializing the rest.
func (s Spec) ProgramSeed(i int) int64 {
	return int64(splitmix64(uint64(s.Seed), uint64(i)) >> 1)
}

// Program materializes program i of the spec.
func (s Spec) Program(i int) Program {
	mixes := s.mixes()
	p := GenerateOpts(s.ProgramSeed(i), mixes[i%len(mixes)], s.Opt)
	// Within a spec the index names the program (two spec programs may
	// share a mix; the derived seeds are what differ).
	p.Name = fmt.Sprintf("gen-s%d-%05d-%s", s.Seed, i, p.Mix)
	return p
}

// Programs materializes the whole spec in index order.
func (s Spec) Programs() []Program {
	out := make([]Program, s.N)
	for i := range out {
		out[i] = s.Program(i)
	}
	return out
}

// Entries returns the spec's programs as corpus entries, in index order.
func (s Spec) Entries() []corpus.Entry {
	out := make([]corpus.Entry, s.N)
	for i := range out {
		out[i] = s.Program(i).Entry()
	}
	return out
}

// splitmix64 mixes a base seed and an index into a well-distributed
// per-program seed (Steele et al.'s SplitMix64 finalizer).
func splitmix64(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stmtKind enumerates the statement templates the chooser draws from.
type stmtKind int

const (
	kAssign stmtKind = iota
	kIf
	kLoop
	kArrayScan
	kPtrWalk
	kRecCall
	kHelperCall
	kLibCall
	kPrint
	numKinds
)

// weights is a statement-kind weight table; a zero weight disables the
// kind under that mix.
type weights [numKinds]int

// mixWeights returns the statement-kind mass function that gives each mix
// its branch character.
func mixWeights(m Mix) weights {
	switch m {
	case LoopHeavy:
		return weights{kAssign: 3, kIf: 2, kLoop: 6, kArrayScan: 4, kLibCall: 1}
	case PointerChasing:
		return weights{kAssign: 2, kIf: 2, kLoop: 1, kPtrWalk: 6, kLibCall: 1}
	case RecursionHeavy:
		return weights{kAssign: 2, kIf: 2, kLoop: 1, kRecCall: 6, kHelperCall: 1}
	case CallDense:
		return weights{kAssign: 2, kIf: 2, kLoop: 1, kHelperCall: 5, kLibCall: 5}
	default: // Mixed
		return weights{kAssign: 3, kIf: 3, kLoop: 2, kArrayScan: 1, kPtrWalk: 2,
			kRecCall: 2, kHelperCall: 2, kLibCall: 2}
	}
}

// gen is one generation in progress.
type gen struct {
	rng *rand.Rand
	b   strings.Builder
	mix Mix
	opt Options
	w   weights

	depth     int // indentation
	loopDepth int
	stmtDepth int      // statement nesting (if/loop bodies)
	budget    int      // remaining statement budget; forces termination of generation
	vars      []string // in-scope int scalars (never induction variables)
	callable  int      // helpers with index < callable may be called
	recurs    int      // recursive helpers available (rec0..recN-1)
	lists     bool     // list helpers (mklist) are emitted
	inHelper  bool     // restrict call emission inside helper bodies
}

func (g *gen) emit(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.depth))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// expr builds a random arithmetic expression over the in-scope variables.
// Division and variable modulus are excluded so no expression can trap;
// products are reduced modulo 100 so magnitudes stay bounded.
func (g *gen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(41)-20)
		case 1:
			return "__rand() % 17"
		default:
			return g.vars[g.rng.Intn(len(g.vars))]
		}
	}
	op := []string{"+", "-", "*"}[g.rng.Intn(3)]
	l, r := g.expr(depth-1), g.expr(depth-1)
	if op == "*" {
		return fmt.Sprintf("((%s %% 100) %s (%s %% 100))", l, op, r)
	}
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}

// cond builds a random comparison, occasionally compounded with && / ||.
func (g *gen) cond() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	c := fmt.Sprintf("%s %s %s", g.expr(1), ops[g.rng.Intn(6)], g.expr(1))
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%s && %s %s %s", c, g.expr(1), ops[g.rng.Intn(6)], g.expr(1))
	case 1:
		return fmt.Sprintf("%s || %s %s %s", c, g.expr(1), ops[g.rng.Intn(6)], g.expr(1))
	}
	return c
}

// pick draws a statement kind from the mix's weight table, masked by what
// is legal in the current context.
func (g *gen) pick() stmtKind {
	w := g.w
	if g.loopDepth >= g.maxLoopDepth() {
		w[kLoop], w[kArrayScan] = 0, 0
	}
	// In contexts where most kinds are masked, if/loop statements can
	// dominate the remaining mass and the recursive statement process turns
	// supercritical (each if expands to >1 expected children) — so nesting
	// is cut off outright past a fixed statement depth.
	if g.stmtDepth >= 4 {
		w[kIf], w[kLoop], w[kArrayScan] = 0, 0, 0
	}
	// Helper and recursive calls are cheap individually but compose into
	// exponential work when a loop body calls a helper whose own loops call
	// further helpers — so calls are never emitted inside helper loop
	// bodies, and in main only outside the innermost nesting level.
	deep := g.loopDepth >= 2 || (g.inHelper && g.loopDepth >= 1)
	if deep || g.callable == 0 {
		w[kHelperCall] = 0
	}
	if deep || g.recurs == 0 {
		w[kRecCall] = 0
	}
	if !g.lists || g.inHelper || g.loopDepth >= 1 {
		// List building allocates; keep it out of loops and helpers so the
		// heap footprint stays trivially bounded.
		w[kPtrWalk] = 0
	}
	if !g.opt.Prints || g.inHelper {
		w[kPrint] = 0
	} else if g.opt.Prints {
		w[kPrint] = 2
	}
	total := 0
	for _, n := range w {
		total += n
	}
	if total == 0 {
		return kAssign
	}
	n := g.rng.Intn(total)
	for k, wk := range w {
		if n < wk {
			return stmtKind(k)
		}
		n -= wk
	}
	return kAssign
}

// maxLoopDepth caps loop nesting per mix.
func (g *gen) maxLoopDepth() int {
	if g.mix == LoopHeavy && !g.inHelper {
		return 3
	}
	return 2
}

// trip draws a loop trip count; deeper nesting draws smaller counts so the
// product of enclosing trip counts stays bounded (<= 24*12*6).
func (g *gen) trip() int {
	switch g.loopDepth {
	case 0:
		return 4 + g.rng.Intn(21) // 4..24
	case 1:
		return 2 + g.rng.Intn(11) // 2..12
	default:
		return 2 + g.rng.Intn(5) // 2..6
	}
}

// stmts emits n random statements.
func (g *gen) stmts(n int) {
	for s := 0; s < n; s++ {
		g.stmt()
	}
}

// stmt emits one statement drawn from the mix's weight table. A hard
// per-program statement budget backstops the statistical size control: once
// exhausted, every statement degenerates to an assignment, so generation
// itself provably terminates.
func (g *gen) stmt() {
	v := g.vars[g.rng.Intn(len(g.vars))]
	if g.budget <= 0 {
		g.emit("%s = %s;", v, g.expr(1))
		return
	}
	g.budget--
	switch g.pick() {
	case kIf:
		g.emit("if (%s) {", g.cond())
		g.depth++
		g.stmtDepth++
		g.stmts(1 + g.rng.Intn(2))
		g.stmtDepth--
		g.depth--
		if g.rng.Intn(2) == 0 {
			g.emit("} else {")
			g.depth++
			g.stmtDepth++
			g.stmts(1 + g.rng.Intn(2))
			g.stmtDepth--
			g.depth--
		}
		g.emit("}")
	case kLoop:
		iv := fmt.Sprintf("i%d", g.rng.Intn(1000000))
		g.emit("int %s;", iv)
		g.emit("for (%s = 0; %s < %d; %s = %s + 1) {", iv, iv, g.trip(), iv, iv)
		g.depth++
		g.loopDepth++
		g.stmtDepth++
		// The induction variable is deliberately NOT added to g.vars: body
		// statements must never reassign it, or termination is gone.
		g.stmts(1 + g.rng.Intn(2))
		g.stmtDepth--
		g.loopDepth--
		g.depth--
		g.emit("}")
	case kArrayScan:
		iv := fmt.Sprintf("i%d", g.rng.Intn(1000000))
		g.emit("int %s;", iv)
		g.emit("for (%s = 0; %s < %d; %s = %s + 1) {", iv, iv, g.trip(), iv, iv)
		g.depth++
		g.loopDepth++
		// Indices are reduced modulo the array length via a nonnegative
		// residue, so scans can never step out of bounds.
		g.emit("garr[lib_abs(%s %% 29)] = %s;", iv, g.expr(1))
		g.emit("%s = %s + garr[lib_abs((%s) %% 29)];", v, v, g.expr(1))
		if g.rng.Intn(2) == 0 {
			g.emit("if (garr[lib_abs(%s %% 29)] %s %s) { %s = %s + 1; }",
				iv, []string{"<", ">", "=="}[g.rng.Intn(3)], g.expr(1), v, v)
		}
		g.loopDepth--
		g.depth--
		g.emit("}")
	case kPtrWalk:
		g.ptrWalk(v)
	case kRecCall:
		r := g.rng.Intn(g.recurs)
		g.emit("%s = rec%d(%d, %s);", v, r, 3+g.rng.Intn(5), g.expr(1))
	case kHelperCall:
		g.emit("%s = h%d(%s);", v, g.rng.Intn(g.callable), g.expr(1))
	case kLibCall:
		g.emit("%s = %s;", v, g.libCall())
	case kPrint:
		g.emit("__print(%s);", g.expr(1))
	default:
		g.emit("%s = %s;", v, g.expr(2))
	}
}

// libCall builds a call into the MinC runtime library, giving programs the
// shared library-branch character the paper's Section 6 feature keys on.
// Only cheap, trap-free routines are drawn, with arguments reduced so every
// call is O(1) or O(log n).
func (g *gen) libCall() string {
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("lib_abs(%s)", g.expr(1))
	case 1:
		return fmt.Sprintf("lib_sign(%s)", g.expr(1))
	case 2:
		return fmt.Sprintf("lib_max(%s, %s)", g.expr(1), g.expr(1))
	case 3:
		return fmt.Sprintf("lib_min(%s, %s)", g.expr(1), g.expr(1))
	case 4:
		return fmt.Sprintf("lib_clamp(%s, 0 - %d, %d)", g.expr(1), 2+g.rng.Intn(9), 2+g.rng.Intn(9))
	case 5:
		return fmt.Sprintf("lib_gcd(%s %% 64, %d)", g.expr(1), 2+g.rng.Intn(30))
	default:
		// NOTE: lib_isqrt is deliberately excluded — its Newton iteration
		// (`while (r != prev)`) oscillates forever between k and k+1 for
		// many inputs (x=3: 2,1,2,1,...). No real corpus program reaches
		// those inputs, but a generator drawing random arguments does.
		return fmt.Sprintf("lib_ipow(%s %% 9, %d)", g.expr(1), 2+g.rng.Intn(4))
	}
}

// ptrWalk emits a list build followed by one of the traversal templates:
// the null-test-driven walks that give the pointer mix its character.
func (g *gen) ptrWalk(v string) {
	p := fmt.Sprintf("p%d", g.rng.Intn(1000000))
	n := 2 + g.rng.Intn(13) // 2..14 nodes
	g.emit("int* %s;", p)
	g.emit("%s = mklist(%d, %s);", p, n, g.expr(1))
	switch g.rng.Intn(3) {
	case 0: // sum walk
		g.emit("while (%s != null) {", p)
		g.depth++
		g.emit("%s = %s + %s[0];", v, v, p)
		g.emit("%s = (int*) %s[1];", p, p)
		g.depth--
		g.emit("}")
	case 1: // count-matching walk
		g.emit("while (%s != null) {", p)
		g.depth++
		g.emit("if (%s[0] %s %s) { %s = %s + 1; }", p,
			[]string{"<", ">", "=="}[g.rng.Intn(3)], g.expr(1), v, v)
		g.emit("%s = (int*) %s[1];", p, p)
		g.depth--
		g.emit("}")
	default: // find-with-early-exit walk
		g.emit("while (%s != null) {", p)
		g.depth++
		g.emit("if (%s[0] == %d) {", p, g.rng.Intn(17))
		g.depth++
		g.emit("%s = %s + 100;", v, v)
		g.emit("%s = null;", p)
		g.depth--
		g.emit("} else {")
		g.depth++
		g.emit("%s = (int*) %s[1];", p, p)
		g.depth--
		g.emit("}")
		g.depth--
		g.emit("}")
	}
}

// helperCount returns how many straight-line helpers the mix emits.
func (g *gen) helperCount() int {
	if g.mix == CallDense {
		return 4 + g.rng.Intn(3) // 4..6
	}
	return 2
}

// recursiveCount returns how many recursive helpers the mix emits.
func (g *gen) recursiveCount() int {
	switch g.mix {
	case RecursionHeavy:
		return 2 + g.rng.Intn(2) // 2..3
	case Mixed, CallDense:
		return 1
	}
	return 0
}

// program generates the whole compilation unit.
func (g *gen) program() string {
	g.budget = 220
	g.emit("// generated: mix=%s", g.mix)
	g.emit("int garr[32];")
	g.emit("int gcnt;")

	if g.mix == PointerChasing || g.mix == Mixed {
		g.lists = true
		g.emitMklist()
	}

	helpers := g.helperCount()
	for h := 0; h < helpers; h++ {
		g.emitHelper(h)
	}
	g.callable = helpers

	recs := g.recursiveCount()
	for r := 0; r < recs; r++ {
		g.emitRecursive(r)
	}
	g.recurs = recs

	g.emit("int main() {")
	g.depth++
	g.vars = []string{"x", "y", "z"}
	for i, v := range g.vars {
		g.emit("int %s;", v)
		g.emit("%s = __input(%d);", v, i)
	}
	n := g.opt.Stmts
	if n <= 0 {
		n = 6 + g.rng.Intn(4)
	}
	g.stmts(n)
	if g.opt.Prints {
		g.emit("__print(x); __print(y); __print(z); __print(gcnt);")
	}
	g.emit("return x + y + z + gcnt;")
	g.depth--
	g.emit("}")
	return g.b.String()
}

// emitMklist emits the shared list-building helper: an acyclic list built
// by prepending, so every traversal that advances the cursor terminates.
func (g *gen) emitMklist() {
	g.emit("int* mklist(int n, int s) {")
	g.depth++
	g.emit("int* head;")
	g.emit("int* c;")
	g.emit("int i;")
	g.emit("head = null;")
	g.emit("for (i = 0; i < n; i = i + 1) {")
	g.depth++
	g.emit("c = __alloc(2);")
	g.emit("c[0] = (s + i * 3) %% 17;")
	g.emit("c[1] = (int) head;")
	g.emit("head = c;")
	g.depth--
	g.emit("}")
	g.emit("return head;")
	g.depth--
	g.emit("}")
}

// emitHelper emits straight-line helper h. Helpers may only call helpers
// with a smaller index, so the call graph is acyclic and chains are finite.
func (g *gen) emitHelper(h int) {
	g.emit("int h%d(int a) {", h)
	g.depth++
	g.inHelper = true
	g.callable = h
	g.vars = []string{"a", "r"}
	g.emit("int r;")
	g.emit("gcnt = gcnt + 1;")
	g.emit("r = a;")
	g.stmts(2 + g.rng.Intn(2))
	g.emit("return r;")
	g.inHelper = false
	g.depth--
	g.emit("}")
}

// emitRecursive emits recursive helper r: either linear recursion on an
// explicit depth argument or bounded tree recursion. The depth argument is
// decremented on every recursive call and checked by the base case, so
// termination is structural.
func (g *gen) emitRecursive(r int) {
	g.emit("int rec%d(int d, int a) {", r)
	g.depth++
	g.emit("if (d <= 0) { return a %% 13; }")
	if g.rng.Intn(2) == 0 {
		// Linear recursion with a data-dependent branch on the way down.
		g.emit("if (a %% 2 == 0) { return rec%d(d - 1, a + 3); }", r)
		g.emit("return a + rec%d(d - 1, a - 2);", r)
	} else {
		// Tree recursion: O(2^d) calls, d <= 7 at every call site.
		g.emit("if (a > %d) { return rec%d(d - 1, a - 5); }", 20+g.rng.Intn(20), r)
		g.emit("return rec%d(d - 1, a + 1) + rec%d(d - 1, (a * 3) %% 19);", r, r)
	}
	g.depth--
	g.emit("}")
}
