// Package codegen lowers checked MinC programs to the Alpha-like IR. The
// Target configuration reproduces the architecture and compiler axes the
// paper studies in Section 5.2: conditional-move availability (the Alpha
// feature that removes short conditional branches), compare-to-zero versus
// two-register branch forms (Alpha vs MIPS), register-save store conventions
// around calls (MIPS), loop unrolling (the DEC GEM compiler), and register
// pressure (which forces spill stores on the register-poor target).
package codegen

// ISA selects the branch-instruction style of the target architecture.
type ISA int

// Supported instruction-set styles.
const (
	// ISAAlpha: conditional branches compare one register against zero;
	// equality of two registers needs an explicit CMPEQ.
	ISAAlpha ISA = iota
	// ISAMIPS: branches may compare two registers directly (BEQ2/BNE2).
	ISAMIPS
)

// String names the ISA.
func (i ISA) String() string {
	if i == ISAMIPS {
		return "MIPS"
	}
	return "Alpha"
}

// Target describes the architecture/compiler configuration used for
// lowering. The zero value is a plain unoptimized Alpha target.
type Target struct {
	// Name identifies the configuration in experiment tables.
	Name string
	// ISA selects the branch style.
	ISA ISA
	// UseCmov converts short conditional assignments (if (c) x = e;) into
	// conditional moves instead of branches.
	UseCmov bool
	// UnrollLoops unrolls innermost counted for-loops by this factor when
	// greater than 1 (the GEM compiler behaviour from Table 7).
	UnrollLoops int
	// RegSaveStores inserts register-save stores/reloads around calls (the
	// MIPS calling-convention effect the paper blames for Store-heuristic
	// differences on tomcatv).
	RegSaveStores bool
	// FoldConstants folds integer-literal arithmetic at compile time.
	FoldConstants bool
	// MaterializeCompares always computes comparison results into a
	// register and branches on that register, even for comparisons against
	// zero that the ISA could branch on directly (a gcc-style difference
	// that shifts which opcodes the Opcode heuristic sees).
	MaterializeCompares bool
	// NoLoopInversion keeps while/for loops in the jump-to-test layout
	// instead of duplicating the test as an entry guard — a loop-layout
	// policy difference between compilers that changes which branches are
	// loop back edges.
	NoLoopInversion bool
	// IntTemps and FloatTemps bound the expression-temporary register pools;
	// exhausting a pool forces spill stores to the stack frame. Zero means
	// the default for the ISA (14 on Alpha, 8/6 on MIPS).
	IntTemps   int
	FloatTemps int
}

func (t Target) intTemps() int {
	if t.IntTemps > 0 {
		return t.IntTemps
	}
	if t.ISA == ISAMIPS {
		return 8
	}
	return 14
}

func (t Target) floatTemps() int {
	if t.FloatTemps > 0 {
		return t.FloatTemps
	}
	if t.ISA == ISAMIPS {
		return 6
	}
	return 14
}

// Canonical returns t in the form every equivalent target shares: the
// temporary pools resolved to the ISA defaults, an unroll factor of at most
// one (no unrolling) as zero, and no Name, which only labels experiment
// tables. Two targets with equal Canonical forms lower every program to the
// same IR.
func (t Target) Canonical() Target {
	t.Name = ""
	t.IntTemps, t.FloatTemps = t.intTemps(), t.floatTemps()
	if t.UnrollLoops <= 1 {
		t.UnrollLoops = 0
	}
	return t
}

// Predefined targets and compiler configurations.
var (
	// AlphaCC models "cc on OSF/1 V1.2" — the paper's baseline compiler:
	// standard -O, no conditional moves.
	AlphaCC = Target{Name: "cc-osf1-v1.2", ISA: ISAAlpha, FoldConstants: true}

	// AlphaCCv2 models "cc on OSF/1 V2.0": conditional moves enabled.
	AlphaCCv2 = Target{Name: "cc-osf1-v2.0", ISA: ISAAlpha, UseCmov: true, FoldConstants: true}

	// AlphaGEM models the DEC GEM compiler: conditional moves plus loop
	// unrolling (Table 7 attributes GEM's different branch mix to
	// unrolling the main loop).
	AlphaGEM = Target{Name: "gem", ISA: ISAAlpha, UseCmov: true, UnrollLoops: 4, FoldConstants: true}

	// AlphaGCC models the GNU C compiler on Alpha: no conditional moves,
	// no folding, materializing every comparison.
	AlphaGCC = Target{Name: "gcc", ISA: ISAAlpha, FoldConstants: false, MaterializeCompares: true, NoLoopInversion: true}

	// MIPSCC models the MIPS compiler of the Ball and Larus study:
	// two-register branches, register-save stores around calls, and a
	// smaller temporary pool (spill stores under pressure).
	MIPSCC = Target{Name: "mips-cc", ISA: ISAMIPS, RegSaveStores: true, FoldConstants: true}
)

// Default is the target used throughout the evaluation unless a table
// studies compiler sensitivity: the paper compiled most programs with the
// DEC compilers at standard optimization on the Alpha.
var Default = AlphaCC

// Compilers lists the Table 7 compiler configurations in presentation order.
var Compilers = []Target{AlphaCC, AlphaCCv2, AlphaGEM, AlphaGCC}
