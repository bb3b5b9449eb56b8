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
// Any probability source plugs in: the trained ESP network, the
// Ball/Larus+Dempster-Shafer heuristic combination, a measured ("perfect")
// profile, or the uninformed 0.5 baseline — the pipeline is identical, so
// cycle deltas between sources measure exactly the value of the
// probabilities.
package pgo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
)

// ProbSource predicts the taken-probability of one static conditional
// branch site from the site's feature vector and heuristic evidence.
type ProbSource interface {
	Name() string
	Prob(v *features.Vector, ev *heuristics.Evidence) float64
}

// Uniform is the uninformed baseline: every branch 50/50.
type Uniform struct{}

// Name implements ProbSource.
func (Uniform) Name() string { return "uniform" }

// Prob implements ProbSource.
func (Uniform) Prob(*features.Vector, *heuristics.Evidence) float64 { return 0.5 }

// Heuristic predicts with the Ball/Larus heuristics combined under
// Dempster-Shafer evidence (the paper's strongest non-learned baseline).
type Heuristic struct{ d *heuristics.DSHC }

// NewHeuristic returns the Ball/Larus+DSHC source.
func NewHeuristic() *Heuristic { return &Heuristic{d: heuristics.NewDSHCBallLarus()} }

// Name implements ProbSource.
func (*Heuristic) Name() string { return "heuristic" }

// Prob implements ProbSource.
func (h *Heuristic) Prob(_ *features.Vector, ev *heuristics.Evidence) float64 {
	if p, ok := h.d.TakenProbability(ev); ok {
		return p
	}
	return 0.5
}

// Model predicts with a trained ESP network. Training honesty is the
// caller's concern: the pgo study trains leave-one-out, exactly like
// Table 4, so the program being optimized never sees its own profile.
type Model struct{ M *core.Model }

// Name implements ProbSource.
func (*Model) Name() string { return "esp" }

// Prob implements ProbSource.
func (m *Model) Prob(v *features.Vector, _ *heuristics.Evidence) float64 {
	return m.M.TakenProbability(*v)
}

// Measured is the perfect-profile source: probabilities read from a real
// profiling run of the same IR. Branches the run never executed fall back
// to 0.5 (a real profile carries no evidence about them either).
type Measured struct{ Prof *interp.Profile }

// Name implements ProbSource.
func (*Measured) Name() string { return "perfect" }

// Prob implements ProbSource.
func (m *Measured) Prob(v *features.Vector, _ *heuristics.Evidence) float64 {
	if c := m.Prof.Branches[v.Ref]; c != nil && c.Executed > 0 {
		return c.TakenFraction()
	}
	return 0.5
}

// SourceFactory builds a probability source for one compilation of a
// program. The pipeline estimates twice — on the baseline IR (for gating
// decisions) and on the gated optimized IR (for layout) — and static
// sources ignore the program, while the perfect source must re-profile
// the exact IR it is asked about.
type SourceFactory func(prog *ir.Program) (ProbSource, error)

// Fixed adapts a static source (uniform, heuristic, ESP) as a factory.
func Fixed(s ProbSource) SourceFactory {
	return func(*ir.Program) (ProbSource, error) { return s, nil }
}

// MeasuredFactory profiles each compilation under run and serves its
// measured taken-fractions — the perfect-profile upper bound.
func MeasuredFactory(run interp.Config) SourceFactory {
	return func(prog *ir.Program) (ProbSource, error) {
		prof, err := interp.Run(prog, run)
		if err != nil {
			return nil, fmt.Errorf("pgo: perfect-profile run of %s: %w", prog.Name, err)
		}
		return &Measured{Prof: prof}, nil
	}
}
