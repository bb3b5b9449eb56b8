package hwsim

import (
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/ir"
	"repro/internal/pgo"
)

// BTFNT is the paper's hardware baseline as a probability source: backward
// branches (target not later in layout) predicted taken, forward branches
// not-taken. It slots into the same hint pipeline as the heuristic, ESP,
// and perfect sources, all via pgo.ProbSource.
type BTFNT struct{}

// Name implements pgo.ProbSource.
func (BTFNT) Name() string { return "btfnt" }

// Prob implements pgo.ProbSource.
func (BTFNT) Prob(v *features.Vector, _ *heuristics.Evidence) float64 {
	if v.Values[features.FBrDirection] == "B" {
		return 1
	}
	return 0
}

// Hints derives one static hint bit per dense branch site: taken when the
// source's probability estimate is at least 1/2. refs is the interpreter's
// site table (TraceSink.BeginTrace order); vecs and ev are the feature
// vectors and heuristic evidence of the program's collected branch sites,
// in site order. A site the collector cannot see (never happens for two-way
// conditional branches, but defended anyway) hints not-taken.
func Hints(src pgo.ProbSource, vecs []features.Vector, ev []heuristics.Evidence, refs []ir.BranchRef) []bool {
	at := make(map[ir.BranchRef]int, len(vecs))
	for i := range vecs {
		at[vecs[i].Ref] = i
	}
	hints := make([]bool, len(refs))
	for i, ref := range refs {
		if k, ok := at[ref]; ok {
			hints[i] = src.Prob(&vecs[k], &ev[k]) >= 0.5
		}
	}
	return hints
}

// Warmups are the cold-start checkpoint budgets: a Counter snapshots its
// cumulative mispredicts when its event count crosses each budget, so the
// study can report mispredict rates after 64, 256, … dynamic branches —
// the regime where seeded counters matter most.
var Warmups = []int64{64, 256, 1024, 4096}

// Counter simulates one predictor over a stream and accounts mispredicts,
// total and at each warmup checkpoint.
type Counter struct {
	Pred   Predictor
	Events int64
	Miss   int64
	// warmMiss[k] is Miss when Events first reached Warmups[k]; -1 until
	// then (the stream may be shorter than a budget).
	warmMiss []int64
}

// NewCounter wraps a predictor for simulation.
func NewCounter(p Predictor) *Counter {
	c := &Counter{Pred: p, warmMiss: make([]int64, len(Warmups))}
	for i := range c.warmMiss {
		c.warmMiss[i] = -1
	}
	return c
}

// Observe feeds one dynamic branch through the predictor.
func (c *Counter) Observe(site int32, taken bool) {
	if c.Pred.Predict(site) != taken {
		c.Miss++
	}
	c.Pred.Update(site, taken)
	c.Events++
	for k, w := range Warmups {
		if c.Events == w {
			c.warmMiss[k] = c.Miss
		}
	}
}

// WarmMiss returns the cumulative mispredicts and events at warmup
// checkpoint k; streams shorter than the budget report their full length.
func (c *Counter) WarmMiss(k int) (miss, events int64) {
	if c.warmMiss[k] >= 0 {
		return c.warmMiss[k], Warmups[k]
	}
	return c.Miss, c.Events
}

// MissRate is total mispredicts over total events (0 for an empty stream).
func (c *Counter) MissRate() float64 {
	if c.Events == 0 {
		return 0
	}
	return float64(c.Miss) / float64(c.Events)
}

// Mux fans one branch-outcome stream out to many predictor counters, so a
// single traced interpreter run scores every (predictor × seed) instance.
// It implements interp.TraceSink.
type Mux struct {
	Counters []*Counter
}

// BeginTrace implements interp.TraceSink.
func (m *Mux) BeginTrace(refs []ir.BranchRef) {}

// TraceBranch implements interp.TraceSink.
func (m *Mux) TraceBranch(site int32, taken bool) {
	for _, c := range m.Counters {
		c.Observe(site, taken)
	}
}
