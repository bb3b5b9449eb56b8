package pgo

import (
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/ir"
)

// MaxCyclicProb caps a loop's continue probability when deriving its trip
// multiplier, bounding 1/(1-p) the way Wu and Larus cap cyclic
// probabilities: a predicted-certain back edge would otherwise yield an
// infinite frequency and drown every other signal.
const MaxCyclicProb = 0.95

// maxCallWeight caps inter-procedural activation weights so recursive call
// chains cannot overflow the fixpoint.
const maxCallWeight = 1e12

// callDepthIters bounds the call-weight fixpoint; ten rounds saturate any
// corpus call graph (deeper recursion only moves weight already at cap).
const callDepthIters = 10

// Estimate is a whole-program edge profile derived from a probability
// source: the SNIPPETS.md branchProb/loopMultiplier interface materialized
// over the IR.
type Estimate struct {
	Source string
	// Prob is the per-site predicted taken probability.
	Prob map[ir.BranchRef]float64
	// Local maps function → block ID → per-invocation execution frequency
	// (entry = 1), loop bodies amplified by 1/(1-p_continue).
	Local map[string]map[int]float64
	// Weight is each function's estimated activations per program run
	// (main = 1), from a bounded call-graph fixpoint over Local.
	Weight map[string]float64
}

// GlobalFreq is a branch block's estimated whole-run execution count:
// function weight times per-invocation block frequency.
func (e *Estimate) GlobalFreq(ref ir.BranchRef) float64 {
	return e.Weight[ref.Func] * e.Local[ref.Func][ref.Block]
}

// Guidance adapts the estimate for codegen.OptimizeLayout.
func (e *Estimate) Guidance() *codegen.EdgeGuidance {
	return &codegen.EdgeGuidance{Prob: e.Prob, LocalFreq: e.Local}
}

// EstimateProfile propagates the source's branch probabilities to block
// frequencies and function weights over the whole program. vecs and ev
// must be the feature vectors and heuristic evidence of prog's sites, in
// site order.
func EstimateProfile(prog *ir.Program, vecs []features.Vector, ev []heuristics.Evidence, src ProbSource) *Estimate {
	est := &Estimate{
		Source: src.Name(),
		Prob:   make(map[ir.BranchRef]float64),
		Local:  make(map[string]map[int]float64, len(prog.Funcs)),
		Weight: make(map[string]float64, len(prog.Funcs)),
	}
	for i := range vecs {
		est.Prob[vecs[i].Ref] = clampProb(src.Prob(&vecs[i], &ev[i]))
	}
	// Per-invocation block frequencies, function by function.
	graphs := make(map[string]*cfg.Graph, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		g := cfg.New(fn)
		graphs[fn.Name] = g
		freq := propagateFunc(g, est)
		m := make(map[int]float64, g.N())
		for i, f := range freq {
			m[g.Blocks[i].ID] = f
		}
		est.Local[fn.Name] = m
	}
	// Inter-procedural weights: a bounded fixpoint over static call sites
	// weighted by the caller's block frequencies. main is the root with one
	// activation; without a main (library-only IR) every function gets
	// weight 1 so gating still has a scale.
	if prog.FuncByName("main") == nil {
		for _, fn := range prog.Funcs {
			est.Weight[fn.Name] = 1
		}
		return est
	}
	callFreq := make(map[string]map[string]float64, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		out := make(map[string]float64)
		for _, b := range graphs[fn.Name].Blocks {
			bf := est.Local[fn.Name][b.ID]
			if bf == 0 {
				continue
			}
			insns := reachableInsns(b)
			for k := range insns {
				if insns[k].Op == ir.OpBsr {
					out[insns[k].Sym] += bf
				}
			}
		}
		callFreq[fn.Name] = out
	}
	w := map[string]float64{"main": 1}
	for iter := 0; iter < callDepthIters; iter++ {
		next := map[string]float64{"main": 1}
		for caller, outs := range callFreq {
			cw := w[caller]
			if cw == 0 {
				continue
			}
			for callee, f := range outs {
				next[callee] += float64(cw * f)
			}
		}
		for k, v := range next {
			if v > maxCallWeight {
				next[k] = maxCallWeight
			}
		}
		w = next
	}
	for _, fn := range prog.Funcs {
		est.Weight[fn.Name] = w[fn.Name]
	}
	return est
}

func clampProb(p float64) float64 {
	switch {
	case p < 0.001:
		return 0.001
	case p > 0.999:
		return 0.999
	}
	return p
}

// reachableInsns returns the prefix of the block's instructions up to and
// including its first terminator — the same reachable region the
// interpreter executes and charges.
func reachableInsns(b *ir.Block) []ir.Instr {
	for k := range b.Insns {
		if b.Insns[k].Op.IsTerminator() {
			return b.Insns[:k+1]
		}
	}
	return b.Insns
}

// propagateFunc computes per-invocation block frequencies (dense indices)
// for one function: local edge probabilities from the source, loop
// multipliers 1/(1-p_continue) applied at headers, and a single
// reverse-postorder pass over the forward (back-edge-free) graph.
func propagateFunc(g *cfg.Graph, est *Estimate) []float64 {
	n := g.N()
	li := g.Loops()
	// Local edge probabilities, dense from → dense to.
	edgeP := make([]map[int]float64, n)
	for i := 0; i < n; i++ {
		succs := g.Succ[i]
		if len(succs) == 0 {
			continue
		}
		ep := make(map[int]float64, len(succs))
		if br := g.Blocks[i].Branch(); br != nil && len(succs) == 2 {
			p := 0.5
			if v, ok := est.Prob[ir.BranchRef{Func: g.Fn.Name, Block: g.Blocks[i].ID}]; ok {
				p = v
			}
			ep[succs[0]] += p // taken successor first
			ep[succs[1]] += 1 - p
		} else {
			for _, s := range succs {
				ep[s] += 1.0 / float64(len(succs))
			}
		}
		edgeP[i] = ep
	}
	// Loop multipliers: the strongest back edge names the continue
	// probability; the header's frequency is amplified by the implied
	// expected trip count.
	mult := make([]float64, n)
	for i := range mult {
		mult[i] = 1
	}
	for _, l := range li.Loops {
		var q float64
		for _, u := range l.Latches {
			if p, ok := edgeP[u][l.Header]; ok && p > q {
				q = p
			}
		}
		if q > MaxCyclicProb {
			q = MaxCyclicProb
		}
		mult[l.Header] = 1 / (1 - q)
	}
	// Reverse postorder over forward edges only (back edges removed): a
	// topological order for the reducible graphs structured lowering emits.
	order := forwardRPO(g)
	freq := make([]float64, n)
	for _, v := range order {
		f := freq[v]
		if v == g.Entry() {
			f += 1
		}
		for _, u := range g.Pred[v] {
			if g.Dominates(v, u) {
				continue // back edge
			}
			if p, ok := edgeP[u][v]; ok {
				f += float64(freq[u] * p)
			}
		}
		freq[v] = f * mult[v]
	}
	return freq
}

// forwardRPO returns the blocks reachable from entry in reverse postorder
// of the graph with back edges removed.
func forwardRPO(g *cfg.Graph) []int {
	seen := make([]bool, g.N())
	var order []int
	var dfs func(int)
	dfs = func(u int) {
		seen[u] = true
		for _, v := range g.Succ[u] {
			if !seen[v] && !g.Dominates(v, u) {
				dfs(v)
			}
		}
		order = append(order, u)
	}
	dfs(g.Entry())
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return order
}
