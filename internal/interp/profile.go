// Package interp executes IR programs deterministically and collects the
// dynamic branch profiles that the paper gathered with ATOM on Alpha
// hardware: per-branch executed/taken counts, per-edge transition counts,
// and total instruction counts.
package interp

import (
	"sort"

	"repro/internal/ir"
)

// BranchCount is the dynamic record for one static conditional branch site.
type BranchCount struct {
	Executed int64
	Taken    int64
}

// TakenFraction returns the fraction of executions in which the branch was
// taken (0 if never executed).
func (c BranchCount) TakenFraction() float64 {
	if c.Executed == 0 {
		return 0
	}
	return float64(c.Taken) / float64(c.Executed)
}

// EdgeRef identifies a control-flow edge (ir block IDs) within a function.
type EdgeRef struct {
	Func string
	From int
	To   int
}

// Profile is the result of executing a program: the dynamic behaviour the
// ESP corpus associates with each static branch site.
type Profile struct {
	Program   string
	Insns     int64 // total dynamic instructions executed
	CondExec  int64 // total conditional-branch executions
	CondTaken int64
	Branches  map[ir.BranchRef]*BranchCount
	Edges     map[EdgeRef]int64
	// Calls counts function activations by name (one per entry into the
	// function body). The simulated-cycle
	// model uses it to seed entry-block dynamic counts, which edge counts
	// alone cannot recover.
	Calls map[string]int64
	// Outputs records values passed to the print intrinsics, used by tests
	// to check program semantics.
	Outputs  []int64
	FOutputs []float64
	// Result is main's return value.
	Result int64
}

// PercentCondBranches returns conditional branches as a percentage of all
// dynamic instructions (column 2 of Table 3).
func (p *Profile) PercentCondBranches() float64 {
	if p.Insns == 0 {
		return 0
	}
	return 100 * float64(p.CondExec) / float64(p.Insns)
}

// PercentTaken returns the percentage of executed conditional branches that
// were taken (column 3 of Table 3).
func (p *Profile) PercentTaken() float64 {
	if p.CondExec == 0 {
		return 0
	}
	return 100 * float64(p.CondTaken) / float64(p.CondExec)
}

// Quantiles returns, for each requested percentage, the minimum number of
// static branch sites that together account for that percentage of all
// executed conditional branches (the Q-50 … Q-100 columns of Table 3).
func (p *Profile) Quantiles(percents []float64) []int {
	counts := make([]int64, 0, len(p.Branches))
	var total int64
	for _, c := range p.Branches {
		if c.Executed > 0 {
			counts = append(counts, c.Executed)
			total += c.Executed
		}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	out := make([]int, len(percents))
	for pi, pct := range percents {
		threshold := pct / 100 * float64(total)
		var acc int64
		n := 0
		for _, c := range counts {
			if float64(acc) >= threshold {
				break
			}
			acc += c
			n++
		}
		out[pi] = n
	}
	return out
}

// StaticSites returns the number of static conditional branch sites that
// were profiled (executed at least zero times — i.e. all sites registered).
func (p *Profile) StaticSites() int { return len(p.Branches) }

// ExecutedSites returns the number of branch sites executed at least once.
func (p *Profile) ExecutedSites() int {
	n := 0
	for _, c := range p.Branches {
		if c.Executed > 0 {
			n++
		}
	}
	return n
}

// NormalizedWeight returns the branch's execution count divided by the total
// conditional-branch executions of the program — the paper's n_k term.
func (p *Profile) NormalizedWeight(ref ir.BranchRef) float64 {
	if p.CondExec == 0 {
		return 0
	}
	c := p.Branches[ref]
	if c == nil {
		return 0
	}
	return float64(c.Executed) / float64(p.CondExec)
}
