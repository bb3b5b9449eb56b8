// Package pgo turns per-branch taken-probabilities into whole-program edge
// profiles and feeds them back into the code generator — profile-guided
// optimization without profiles, the Section 6 goal the paper names
// ("program-based profile estimation using ESP") and the modern PGO-sans-
// instrumentation recipe of Rotem & Cummins. The interface mirrors the
// SML/NJ STATIC_BRANCH_PREDICTION signature: a branchProb oracle plus a
// loop multiplier yields block and edge frequencies over the IR, which
// gate conditional-move conversion and loop unrolling, drive
// likely-successor block layout, and sink predicted-cold code out of line.
//
// Any static predictor (heuristics.Predictor) plugs in: the trained ESP
// network, the Ball/Larus+Dempster-Shafer heuristic combination, a
// measured ("perfect") profile, or the uninformed 0.5 baseline — the
// pipeline is identical, so cycle deltas between predictors measure
// exactly the value of their probabilities.
package pgo

import (
	"fmt"

	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
)

// SourceFactory builds the static predictor that supplies taken-
// probabilities for one compilation of a program. The pipeline estimates
// twice — on the baseline IR (for gating decisions) and on the gated
// optimized IR (for layout) — and most predictors ignore the program,
// while the perfect profile must re-profile the exact IR it is asked
// about.
type SourceFactory func(prog *ir.Program) (heuristics.Predictor, error)

// Fixed adapts a program-independent predictor (the heuristics, ESP, or
// heuristics.Fixed{}, the uninformed 0.5) as a factory.
func Fixed(p heuristics.Predictor) SourceFactory {
	return func(*ir.Program) (heuristics.Predictor, error) { return p, nil }
}

// MeasuredFactory profiles each compilation under run and serves its
// measured taken-fractions (heuristics.Perfect) — the perfect-profile
// upper bound.
func MeasuredFactory(run interp.Config) SourceFactory {
	return func(prog *ir.Program) (heuristics.Predictor, error) {
		prof, err := interp.Run(prog, run)
		if err != nil {
			return nil, fmt.Errorf("pgo: perfect-profile run of %s: %w", prog.Name, err)
		}
		return &heuristics.Perfect{Prof: prof}, nil
	}
}
