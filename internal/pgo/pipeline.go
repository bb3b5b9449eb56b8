package pgo

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/ir"
	"repro/internal/minic"
)

// OptTarget is the optimizing target the pgo pipeline guides: GEM-flavored
// Alpha code generation with conditional moves and 4-way loop unrolling
// available. Unguided compilation applies both unconditionally (the
// historical Table 7 behaviour); guided compilation gates them through the
// estimated profile and adds layout.
var OptTarget = codegen.Target{
	Name:          "pgo-opt",
	ISA:           codegen.ISAAlpha,
	FoldConstants: true,
	UseCmov:       true,
	UnrollLoops:   4,
}

// Options are the pipeline's gating thresholds. Frequencies are estimated
// whole-run execution counts (main entry = 1), so a threshold of 8 means
// "predicted to run at least eight times per program execution".
type Options struct {
	Target codegen.Target
	// CmovMinFreq: an if-statement converts to conditional moves only when
	// its branch is predicted at least this hot. Cmov trades a branch for
	// unconditional evaluation of both arms, which only pays where the
	// branch actually executes.
	CmovMinFreq float64
	// UnrollMinFreq and UnrollMinProb: a counted loop unrolls only when its
	// bottom test is predicted at least this hot and its continue
	// probability at least this high (a predicted trip count of
	// 1/(1-p) iterations per entry). Note MaxCyclicProb caps a single
	// loop's estimated amplification at 20, so a frequency threshold
	// above 20 is reachable only through call weights or loop nesting.
	UnrollMinFreq float64
	UnrollMinProb float64
	// ColdBelow: blocks predicted to execute fewer than this many times per
	// function invocation sink out of line.
	ColdBelow float64
}

// DefaultOptions returns the thresholds the study and bench use.
func DefaultOptions() Options {
	return Options{
		Target:        OptTarget,
		CmovMinFreq:   8,
		UnrollMinFreq: 16,
		UnrollMinProb: 0.6,
		ColdBelow:     0.05,
	}
}

// BuildPlan translates an IR-level estimate into the position-keyed gating
// decisions codegen consumes, using the meta side table of the compilation
// the estimate was computed on. Positions with several branch sites (short
// circuit trees, unrolled copies) gate on their hottest site.
func BuildPlan(meta *codegen.Meta, est *Estimate, opt Options) *codegen.Plan {
	type posInfo struct {
		maxFreq  float64
		loopFreq float64
		loopProb float64
	}
	info := make(map[minic.Pos]*posInfo)
	for ref, o := range meta.Branch {
		pi := info[o.Pos]
		if pi == nil {
			pi = &posInfo{}
			info[o.Pos] = pi
		}
		f := est.GlobalFreq(ref)
		if f > pi.maxFreq {
			pi.maxFreq = f
		}
		if o.Loop && f >= pi.loopFreq {
			pi.loopFreq = f
			pi.loopProb = est.Prob[ref]
		}
	}
	return &codegen.Plan{
		Cmov: func(pos minic.Pos) bool {
			pi := info[pos]
			return pi != nil && pi.maxFreq >= opt.CmovMinFreq
		},
		Unroll: func(pos minic.Pos) bool {
			pi := info[pos]
			return pi != nil && pi.loopFreq >= opt.UnrollMinFreq && pi.loopProb >= opt.UnrollMinProb
		},
	}
}

// Optimize compiles ast under full profile guidance from the source the
// factory provides: a baseline compilation discovers the branch sites, a
// first estimate gates cmov and unrolling, and a second estimate — on the
// gated IR, whose branch sites are the ones layout will move — drives
// likely-successor block layout with cold splitting. The returned program
// is verified.
//
// The pipeline estimates twice because the two consumers see different
// IR: gating decisions must be made before the optimizing compilation
// exists (they are AST-level), while layout needs probabilities for
// exactly the branches of the program being laid out.
func Optimize(ast *minic.Program, lang ir.Language, srcFor SourceFactory, opt Options) (*ir.Program, error) {
	base, meta, err := codegen.CompilePlanned(ast, lang, codegen.Default, nil)
	if err != nil {
		return nil, fmt.Errorf("pgo: baseline compile: %w", err)
	}
	est, err := estimate(base, srcFor)
	if err != nil {
		return nil, err
	}
	plan := BuildPlan(meta, est, opt)

	prog, _, err := codegen.CompilePlanned(ast, lang, opt.Target, plan)
	if err != nil {
		return nil, fmt.Errorf("pgo: guided compile: %w", err)
	}
	est2, err := estimate(prog, srcFor)
	if err != nil {
		return nil, err
	}
	codegen.OptimizeLayout(prog, est2.Guidance(), codegen.LayoutOptions{
		SplitCold: true,
		ColdBelow: opt.ColdBelow,
	})
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("pgo: layout produced invalid IR for %s: %w", prog.Name, err)
	}
	return prog, nil
}

// estimate builds prog's source and estimates prog's profile from it over
// the vectors and evidence of prog's sites.
func estimate(prog *ir.Program, srcFor SourceFactory) (*Estimate, error) {
	src, err := srcFor(prog)
	if err != nil {
		return nil, err
	}
	ps := features.Collect(prog)
	return EstimateProfile(prog, features.ExtractAll(ps), heuristics.EvidenceOf(ps), src), nil
}

// Unguided compiles ast with the same optimizing target but no guidance:
// cmov and unrolling apply unconditionally and layout stays as generated.
// This is the study's baseline.
func Unguided(ast *minic.Program, lang ir.Language, opt Options) (*ir.Program, error) {
	prog, _, err := codegen.CompilePlanned(ast, lang, opt.Target, nil)
	if err != nil {
		return nil, fmt.Errorf("pgo: unguided compile: %w", err)
	}
	return prog, nil
}
