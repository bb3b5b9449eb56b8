// Package corpus holds the benchmark programs of the study: a MinC analog
// for each of the 43 C and Fortran programs the paper instrumented (the
// SPEC92 suites, the Perfect Club suite, and the miscellaneous Unix tools of
// "Other C"), plus the three Scheme-style programs of the Section 3.1.2
// language study.
//
// The originals are proprietary (SPEC92 licensing, DEC compilers, Alpha
// binaries), so each entry is a from-scratch program written to match its
// namesake's *branch character*: the approximate fraction of taken branches,
// how concentrated dynamic branches are over static sites (the Q-50…Q-100
// quantiles of Table 3), the loop/non-loop mix, and the idioms the paper's
// heuristics key on (pointer-null scans, convergence tests that almost never
// fire, store/call successors, recursion-as-iteration for the Scheme
// programs). Absolute instruction counts are necessarily far smaller than
// the paper's multi-billion-instruction traces.
package corpus

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/codegen"
	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Suite identifies the benchmark suite a program belongs to, matching the
// grouping of Tables 3 and 4.
type Suite string

// Suites.
const (
	SuiteOtherC      Suite = "Other C"
	SuiteSPECC       Suite = "SPEC C"
	SuiteSPECFortran Suite = "SPEC Fortran"
	SuitePerfectClub Suite = "Perf Club"
	SuiteScheme      Suite = "Scheme"
	// SuiteGenerated tags synthetic programs from the gencorpus generator;
	// they are never part of the registry, so the paper's tables keep their
	// exact 43+3 program set.
	SuiteGenerated Suite = "Generated"
)

// Entry is one corpus program.
type Entry struct {
	// Name matches the paper's program name (lower case as printed).
	Name string
	// Suite is the Table 3/4 grouping.
	Suite Suite
	// Language tags the dialect: LangC for the C suites, LangFortran for
	// the Fortran suites, LangScheme for the Section 3.1.2 programs.
	Language ir.Language
	// Source is the MinC program text.
	Source string
	// Input is the program's input vector (served by __input).
	Input []int64
	// Seed seeds the deterministic __rand stream.
	Seed uint64
	// About describes what the analog models.
	About string
}

var registry []Entry

func register(e Entry) {
	registry = append(registry, e)
}

// All returns every corpus entry: the 43 C and Fortran programs in the
// paper's presentation order (Other C, SPEC C, SPEC Fortran, Perfect Club)
// followed by the three Scheme programs.
func All() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return suiteOrder(out[i].Suite) < suiteOrder(out[j].Suite)
		}
		return false // keep registration order within a suite
	})
	return out
}

func suiteOrder(s Suite) int {
	switch s {
	case SuiteOtherC:
		return 0
	case SuiteSPECC:
		return 1
	case SuiteSPECFortran:
		return 2
	case SuitePerfectClub:
		return 3
	case SuiteScheme:
		return 4
	}
	return 5
}

// Study returns the 43 C and Fortran programs (the paper's main corpus,
// excluding the Scheme study programs).
func Study() []Entry {
	var out []Entry
	for _, e := range All() {
		if e.Suite != SuiteScheme {
			out = append(out, e)
		}
	}
	return out
}

// BySuite returns the programs of one suite in order.
func BySuite(s Suite) []Entry {
	var out []Entry
	for _, e := range All() {
		if e.Suite == s {
			out = append(out, e)
		}
	}
	return out
}

// ByLanguage returns the study programs with the given language tag — the
// paper's cross-validation groups (23 C, 20 Fortran).
func ByLanguage(lang ir.Language) []Entry {
	var out []Entry
	for _, e := range Study() {
		if e.Language == lang {
			out = append(out, e)
		}
	}
	return out
}

// ByName looks an entry up.
func ByName(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Parse parses the entry's source linked against the MinC runtime library
// (StdlibSource), mirroring how the paper's binaries carried the native OS
// libraries. Callers that compile the same entry for several targets (the
// pgo pipeline, the guided-optimization study) parse once and reuse the AST.
func (e Entry) Parse() (*minic.Program, error) {
	ast, err := minic.Parse(e.Name, e.Source+StdlibSource+Stdlib2Source)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", e.Name, err)
	}
	return ast, nil
}

// Compile compiles the entry for a target, linked against the runtime
// library compiled once per process. The result is the IR a compile of
// Parse's AST gives; on any failure the entry is compiled that way, so
// errors are exactly those of the concatenated source.
func (e Entry) Compile(tgt codegen.Target) (*ir.Program, error) {
	if prog, ok := CompileLinked(e.Name, e.Source, e.Language, tgt, guard.Limits{}); ok {
		return prog, nil
	}
	ast, err := e.Parse()
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Compile(ast, e.Language, tgt)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", e.Name, err)
	}
	return prog, nil
}

// stdlib is the runtime library (StdlibSource + Stdlib2Source), parsed on
// first use and compiled once per (language, target).
var stdlib = sync.OnceValue(func() *codegen.Library {
	ast, err := minic.Parse("stdlib", StdlibSource+Stdlib2Source)
	if err != nil {
		panic("corpus: runtime library does not parse: " + err.Error())
	}
	return codegen.NewLibrary(ast)
})

// LibraryImage returns the runtime library compiled for lang and tgt: the
// image CompileLinked marks its programs with. It builds the image on
// first use and compiles no program.
func LibraryImage(lang ir.Language, tgt codegen.Target) (*ir.Image, error) {
	return stdlib().Image(lang, tgt)
}

// CheckLibraryImages returns an error naming the first runtime-library
// image, over every language and target, whose IR has changed since it was
// built (ir.Image.Intact). Linked programs share their image's IR, so a
// write to a linked program's library functions shows here.
func CheckLibraryImages() error {
	for _, lang := range []ir.Language{ir.LangC, ir.LangFortran, ir.LangScheme} {
		for _, tgt := range append([]codegen.Target{codegen.MIPSCC}, codegen.Compilers...) {
			img, err := LibraryImage(lang, tgt)
			if err != nil {
				return err
			}
			if !img.Intact() {
				return fmt.Errorf("corpus: runtime library image %s/%s was written to", lang, tgt.Name)
			}
		}
	}
	return nil
}

// stdlibWithin caches, per parse-depth limit, whether the runtime library
// parses within that limit.
var stdlibWithin sync.Map // minic.Limits -> bool

// CompileLinked compiles src linked against the runtime library: it parses
// and checks only src, and copies in the library compiled for lang and tgt.
// When ok is true the program is exactly what compiling
// src+StdlibSource+Stdlib2Source returns when parsed under lim.ParseDepth
// and compiled under lim.CFGBlocks. ok is false whenever that is not
// guaranteed: src fails to parse or check on its own, defines a library
// name, or a limit fails on src or on the library. The caller then compiles
// the concatenated source, which yields the exact error, so error text
// never depends on this path.
func CompileLinked(name, src string, lang ir.Language, tgt codegen.Target, lim guard.Limits) (*ir.Program, bool) {
	parse := minic.Limits{MaxDepth: lim.ParseDepth}
	if parse.MaxDepth > 0 && !stdlibParsesWithin(parse) {
		return nil, false
	}
	ast, err := minic.ParseWithLimits(name, src, parse)
	if err != nil {
		return nil, false
	}
	prog, err := stdlib().Compile(ast, lang, tgt, lim)
	if err != nil {
		return nil, false
	}
	return prog, true
}

// stdlibParsesWithin reports whether the runtime library parses under
// parse. Each top-level declaration starts at depth zero, so the library
// exceeds a depth limit inside the concatenated source exactly when it
// exceeds it alone.
func stdlibParsesWithin(parse minic.Limits) bool {
	if ok, hit := stdlibWithin.Load(parse); hit {
		return ok.(bool)
	}
	_, err := minic.ParseWithLimits("stdlib", StdlibSource+Stdlib2Source, parse)
	stdlibWithin.Store(parse, err == nil)
	return err == nil
}

// RunConfig is the standard interpreter configuration for the entry.
func (e Entry) RunConfig() interp.Config {
	return interp.Config{Input: e.Input, Seed: e.Seed}
}
