package interp_test

// The corpus-wide differential test: the micro-op interpreter (Run) and the
// per-instruction reference interpreter (RunReference, the oracle in
// reference_test.go) must be bit-identical — profiles, edges, calls, results,
// and typed error points — on every corpus program, on laid-out and guided
// binaries, with fault-injection armed on every registered site, and under
// tight fuel/stack/call-depth budgets.
//
// This lives in package interp_test (not interp) because the corpus, codegen
// and pgo packages import interp.

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pgo"
)

// armAllSites activates an injector with an always-fire error rule on every
// registered fault site. The interpreter's trace loop crosses none of them,
// so an armed injector must not perturb a single profile bit; if a future
// change routes tracing through an injectable site, this catches it.
func armAllSites(t *testing.T) {
	t.Helper()
	var rules []faultinject.Rule
	for _, site := range faultinject.Sites() {
		rules = append(rules, faultinject.Rule{
			Site: site,
			Kind: faultinject.Error,
			Err:  errors.New("injected: " + site),
			Rate: 1,
		})
	}
	t.Cleanup(faultinject.Activate(faultinject.New(1, rules...)))
}

func diffProfiles(t *testing.T, name string, uop, ref *interp.Profile) {
	t.Helper()
	if uop.Program != ref.Program {
		t.Fatalf("%s: program %q vs reference %q", name, uop.Program, ref.Program)
	}
	if uop.Insns != ref.Insns || uop.Result != ref.Result ||
		uop.CondExec != ref.CondExec || uop.CondTaken != ref.CondTaken {
		t.Fatalf("%s: totals diverge: insns %d/%d result %d/%d cond %d/%d taken %d/%d",
			name, uop.Insns, ref.Insns, uop.Result, ref.Result,
			uop.CondExec, ref.CondExec, uop.CondTaken, ref.CondTaken)
	}
	if len(uop.Branches) != len(ref.Branches) {
		t.Fatalf("%s: %d branch sites vs reference %d", name, len(uop.Branches), len(ref.Branches))
	}
	for r, c := range ref.Branches {
		uc := uop.Branches[r]
		if uc == nil || *uc != *c {
			t.Fatalf("%s: site %v: uop %+v reference %+v", name, r, uc, c)
		}
	}
	if !reflect.DeepEqual(uop.Edges, ref.Edges) {
		t.Fatalf("%s: edge profiles diverge (%d vs %d edges)",
			name, len(uop.Edges), len(ref.Edges))
	}
	if !reflect.DeepEqual(uop.Calls, ref.Calls) {
		t.Fatalf("%s: call counts diverge: uop %v reference %v", name, uop.Calls, ref.Calls)
	}
	if !reflect.DeepEqual(uop.Outputs, ref.Outputs) || !reflect.DeepEqual(uop.FOutputs, ref.FOutputs) {
		t.Fatalf("%s: outputs diverge", name)
	}
}

// diffCase is one input of the corpus differential: a program and the
// configuration it runs under.
type diffCase struct {
	name  string
	build func() (*ir.Program, error)
	cfg   interp.Config
}

// diffCases are every corpus program under the default target and the
// laid-out layout program.
func diffCases() []diffCase {
	var cases []diffCase
	for _, e := range corpus.All() {
		e := e
		cases = append(cases, diffCase{e.Name,
			func() (*ir.Program, error) { return e.Compile(codegen.Default) }, e.RunConfig()})
	}
	return append(cases, diffCase{"layout", laidOut, interp.Config{}})
}

// guidedCases are four guided binaries, whose cmov, unrolling and layout
// rewrite every function the interpreters dispatch over.
func guidedCases(t *testing.T) []diffCase {
	var cases []diffCase
	for _, name := range []string{"compress", "espresso", "tomcatv", "boyer"} {
		e, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("corpus entry %q missing", name)
		}
		cases = append(cases, diffCase{name, func() (*ir.Program, error) {
			ast, err := e.Parse()
			if err != nil {
				return nil, err
			}
			return pgo.Optimize(ast, e.Language, pgo.Fixed(heuristics.NewDSHCBallLarus()), pgo.DefaultOptions())
		}, e.RunConfig()})
	}
	return cases
}

// layoutSrc exercises every fixup path of codegen.OptimizeLayout: a
// mostly-taken forward branch (inversion), an if/else diamond, a loop, and a
// rarely executed error arm (cold splitting).
const layoutSrc = `
int main() {
	int i;
	int s;
	int bad;
	s = 0;
	bad = 0;
	for (i = 0; i < 200; i = i + 1) {
		if (i != 100) {
			s = s + i;
		} else {
			bad = bad + 1;
			__print(bad);
		}
		if (s > 10000) {
			s = s - 7;
		}
	}
	__print(s);
	return s;
}
`

// laidOut compiles layoutSrc and lays it out under guidance measured from
// its own profile (taken fractions, and per-invocation block frequencies
// from entry and edge counts), splitting cold blocks out of line.
func laidOut() (*ir.Program, error) {
	ast, err := minic.Parse("layout", layoutSrc)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
	if err != nil {
		return nil, err
	}
	prof, err := interp.Run(prog, interp.Config{CollectEdges: true})
	if err != nil {
		return nil, err
	}
	g := &codegen.EdgeGuidance{
		Prob:      make(map[ir.BranchRef]float64),
		LocalFreq: make(map[string]map[int]float64),
	}
	for ref, c := range prof.Branches {
		if c.Executed > 0 {
			g.Prob[ref] = c.TakenFraction()
		}
	}
	for _, f := range prog.Funcs {
		calls := prof.Calls[f.Name]
		if calls == 0 {
			continue
		}
		dyn := map[int]int64{f.Blocks[0].ID: calls}
		for e, n := range prof.Edges {
			if e.Func == f.Name {
				dyn[e.To] += n
			}
		}
		freq := make(map[int]float64, len(f.Blocks))
		for _, b := range f.Blocks {
			freq[b.ID] = float64(dyn[b.ID]) / float64(calls)
		}
		g.LocalFreq[f.Name] = freq
	}
	codegen.OptimizeLayout(prog, g, codegen.LayoutOptions{SplitCold: true, ColdBelow: 0.01})
	return prog, prog.Verify()
}

// TestCorpusUopMatchesReference runs every corpus program and the laid-out
// layout program through both interpreters, with edge profiling off (as
// analysis and training run) and on, and requires exact agreement, with
// fault injection armed throughout.
func TestCorpusUopMatchesReference(t *testing.T) {
	armAllSites(t)
	if n := len(corpus.All()); n < 46 {
		t.Fatalf("corpus has %d programs, expected the full 46", n)
	}
	runDiffCases(t, diffCases())
}

// TestGuidedReferencePathAgrees holds the guided binaries to the same exact
// agreement: the micro-op path and the reference path must agree instruction
// for instruction even after layout has rewritten every function.
func TestGuidedReferencePathAgrees(t *testing.T) {
	armAllSites(t)
	runDiffCases(t, guidedCases(t))
}

// runDiffCases runs each case as a parallel subtest through both
// interpreters, edges off and on, and compares the profiles in full.
func runDiffCases(t *testing.T, cases []diffCase) {
	t.Helper()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prog, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, edges := range []bool{false, true} {
				cfg := c.cfg
				cfg.CollectEdges = edges
				uop, err := interp.Run(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := interp.RunReference(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if (uop.Edges != nil) != edges {
					t.Fatalf("CollectEdges=%v, but the edge map is %v", edges, uop.Edges)
				}
				diffProfiles(t, c.name, uop, ref)
			}
		})
	}
}

// TestCorpusLowersOnlyEnteredFunctions: a run lowers a function to
// micro-ops exactly when it calls it, so over every corpus program the
// lowered images are the key set of Profile.Calls, and a run that finishes
// within its budget lowers no exact twin.
func TestCorpusLowersOnlyEnteredFunctions(t *testing.T) {
	for _, e := range corpus.All() {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		prof, lowered, twins, err := interp.RunLowered(prog, e.RunConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(twins) > 0 {
			t.Fatalf("%s: a run within budget lowered exact twins of %v", e.Name, twins)
		}
		called := make([]string, 0, len(prof.Calls))
		for name := range prof.Calls {
			called = append(called, name)
		}
		slices.Sort(called)
		slices.Sort(lowered)
		if !slices.Equal(lowered, called) {
			t.Fatalf("%s: lowered %v, called %v", e.Name, lowered, called)
		}
		if len(lowered) >= len(prog.Funcs) {
			t.Fatalf("%s: lowered all %d functions; the runtime library is never all entered",
				e.Name, len(prog.Funcs))
		}
	}
}

// TestCorpusBudgetErrorsMatchReference starves every corpus program of
// fuel, stack, and call depth and requires the micro-op path to fail with
// exactly the same typed error as the reference — budget enforcement moved
// from per-instruction to per-block accounting, so the error *point* is the
// part most worth pinning.
func TestCorpusBudgetErrorsMatchReference(t *testing.T) {
	armAllSites(t)
	tight := []struct {
		name string
		mut  func(*interp.Config)
	}{
		{"fuel", func(c *interp.Config) { c.MaxInsns = 5_000 }},
		{"calldepth", func(c *interp.Config) { c.MaxCallDepth = 2 }},
		{"stack", func(c *interp.Config) { c.MemWords = 1 << 10 }},
	}
	for _, e := range corpus.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := e.Compile(codegen.Default)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range tight {
				cfg := e.RunConfig()
				tc.mut(&cfg)
				uop, uerr := interp.Run(prog, cfg)
				ref, rerr := interp.RunReference(prog, cfg)
				if (uerr == nil) != (rerr == nil) {
					t.Fatalf("%s: uop err %v, reference err %v", tc.name, uerr, rerr)
				}
				if uerr != nil {
					// Same typed budget error from both paths.
					for _, sentinel := range []error{
						interp.ErrFuel, interp.ErrCallDepth, interp.ErrStack,
						interp.ErrHeap, guard.ErrBudgetExceeded,
					} {
						if errors.Is(uerr, sentinel) != errors.Is(rerr, sentinel) {
							t.Fatalf("%s: error types diverge: uop %v, reference %v",
								tc.name, uerr, rerr)
						}
					}
					continue
				}
				// Both survived the tight budget: profiles must still match.
				diffProfiles(t, tc.name, uop, ref)
			}
		})
	}
}

// TestReferenceMatchesGoldenSemantics pins the reference path itself: a
// small program with a known exact profile must produce the same counts
// from both interpreters and from the documented semantics.
func TestReferenceMatchesGoldenSemantics(t *testing.T) {
	e, ok := corpus.ByName("tomcatv")
	if !ok {
		t.Skip("no tomcatv in corpus")
	}
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.RunConfig()
	cfg.CollectEdges = true
	uop, err := interp.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uop.CondExec == 0 || len(uop.Edges) == 0 {
		t.Fatalf("tomcatv traced no conditional branches (cond=%d edges=%d): vacuous differential",
			uop.CondExec, len(uop.Edges))
	}
	var refs []ir.BranchRef
	for r := range uop.Branches {
		refs = append(refs, r)
	}
	if len(refs) == 0 {
		t.Fatal("no branch sites recorded")
	}
}
