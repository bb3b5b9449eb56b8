package codegen

import (
	"sort"

	"repro/internal/ir"
)

// EdgeGuidance is the estimated edge profile OptimizeLayout consumes. It is
// deliberately a plain data bundle — codegen never imports the estimator,
// so any probability source (ESP, heuristics, a measured profile, a test
// fixture) can drive layout.
type EdgeGuidance struct {
	// Prob maps each conditional branch site to its predicted
	// taken-probability. Missing sites default to 0.5.
	Prob map[ir.BranchRef]float64
	// LocalFreq maps function name → block ID → predicted per-invocation
	// execution frequency (entry block = 1). Missing blocks default to 0.
	LocalFreq map[string]map[int]float64
}

func (g *EdgeGuidance) prob(ref ir.BranchRef) float64 {
	if g == nil {
		return 0.5
	}
	if p, ok := g.Prob[ref]; ok {
		return p
	}
	return 0.5
}

func (g *EdgeGuidance) freq(fn string, block int) float64 {
	if g == nil {
		return 0
	}
	return g.LocalFreq[fn][block]
}

// LayoutOptions controls OptimizeLayout.
type LayoutOptions struct {
	// SplitCold sinks predicted-cold blocks out of line: a trace through
	// hot code never pulls a cold successor in as its fall-through, so cold
	// chains accumulate at the end of the function.
	SplitCold bool
	// ColdBelow is the per-invocation frequency under which a block counts
	// as cold when SplitCold is set.
	ColdBelow float64
}

// OptimizeLayout reorders every function's basic blocks so that each
// conditional branch's predicted-likely successor becomes the fall-through
// (inverting the branch sense where the opcode permits), and — with
// SplitCold — predicted-cold blocks sink out of line past the hot traces.
// Block IDs are preserved, so branch sites (ir.BranchRef) remain valid
// names across the pass; correctness is restored after reordering by
// inverting branches, inserting trampoline blocks where neither successor
// could be made adjacent, appending explicit jumps for displaced implicit
// fall-throughs, and deleting jumps made redundant by the new order.
//
// Under the simulated-cycle model this is the classic win of profile-driven
// code placement: a correctly-laid-out branch falls through on its common
// path, paying neither the taken-redirect nor (because BTFNT predicts
// forward branches not-taken) the misprediction penalty.
//
// The pass rewrites every function, library functions included, so it
// first gives a linked program its own copy of the library and drops the
// image mark (ir.Program.Unshare): the image and every other program
// linked against it are left unchanged.
func OptimizeLayout(p *ir.Program, g *EdgeGuidance, opt LayoutOptions) {
	p.Unshare()
	for _, f := range p.Funcs {
		layoutFunc(f, g, opt)
	}
}

// invertibleBranch reports whether negating the branch opcode preserves
// semantics exactly. Float order comparisons are excluded: with a NaN
// operand both fblt x and fbge x fall through, so the negated form is not
// the complement and inversion could change program behaviour.
func invertibleBranch(op ir.Op) bool {
	switch op {
	case ir.OpFblt, ir.OpFble, ir.OpFbgt, ir.OpFbge:
		return false
	}
	return op.IsCondBranch()
}

func layoutFunc(f *ir.Func, g *EdgeGuidance, opt LayoutOptions) {
	n := len(f.Blocks)
	if n < 2 {
		return
	}
	byID := make(map[int]*ir.Block, n)
	oldFall := make(map[int]int, n) // block ID → old layout successor ID (-1 for last)
	maxID := 0
	for i, b := range f.Blocks {
		byID[b.ID] = b
		if b.ID > maxID {
			maxID = b.ID
		}
		if i+1 < n {
			oldFall[b.ID] = f.Blocks[i+1].ID
		} else {
			oldFall[b.ID] = -1
		}
	}
	cold := func(id int) bool {
		return opt.SplitCold && g.freq(f.Name, id) < opt.ColdBelow
	}

	// Trace formation: greedily chain each block to its preferred unplaced
	// successor. The preferred successor of a conditional branch is the one
	// predicted likely — the taken target only when the branch sense can be
	// inverted to keep semantics. Hot traces refuse to chain into cold
	// blocks, which is what sinks cold code out of line.
	placed := make(map[int]bool, n)
	order := make([]*ir.Block, 0, n)
	appendTrace := func(start *ir.Block) {
		for cur := start; cur != nil && !placed[cur.ID]; {
			placed[cur.ID] = true
			order = append(order, cur)
			var cands []int
			t := cur.Terminator()
			switch {
			case t == nil:
				cands = []int{oldFall[cur.ID]}
			case t.Op.IsCondBranch():
				ft, tk := oldFall[cur.ID], t.Target
				if g.prob(ir.BranchRef{Func: f.Name, Block: cur.ID}) > 0.5 &&
					invertibleBranch(t.Op) && tk != ft {
					cands = []int{tk, ft}
				} else {
					cands = []int{ft, tk}
				}
			case t.Op.Class() == ir.ClassUncondBranch:
				cands = []int{t.Target}
			}
			next := (*ir.Block)(nil)
			for _, id := range cands {
				if id < 0 || placed[id] {
					continue
				}
				if cold(id) && !cold(cur.ID) {
					continue // leave cold successors for their own trace
				}
				next = byID[id]
				break
			}
			cur = next
		}
	}
	appendTrace(f.Blocks[0])
	// Seed the remaining traces hottest-first; cold blocks seed last, in
	// their original relative order, forming the out-of-line cold region.
	var rest []*ir.Block
	for _, b := range f.Blocks {
		if !placed[b.ID] {
			rest = append(rest, b)
		}
	}
	sort.SliceStable(rest, func(i, j int) bool {
		ci, cj := cold(rest[i].ID), cold(rest[j].ID)
		if ci != cj {
			return !ci
		}
		if ci {
			return false // cold region keeps original order
		}
		return g.freq(f.Name, rest[i].ID) > g.freq(f.Name, rest[j].ID)
	})
	for _, b := range rest {
		if !placed[b.ID] {
			appendTrace(b)
		}
	}

	// Fixup: restore control flow under the new order. Trampolines get
	// fresh IDs, so existing branch sites keep their names.
	out := make([]*ir.Block, 0, len(order)+4)
	for i, b := range order {
		out = append(out, b)
		nextID := -1
		if i+1 < len(order) {
			nextID = order[i+1].ID
		}
		t := b.Terminator()
		switch {
		case t == nil:
			if ft := oldFall[b.ID]; ft != nextID {
				b.Insns = append(b.Insns, ir.Instr{Op: ir.OpBr, Target: ft})
			}
		case t.Op.IsCondBranch():
			ft := oldFall[b.ID]
			switch {
			case ft == nextID:
				// Old fall-through is adjacent again: nothing to do.
			case t.Target == nextID && invertibleBranch(t.Op) && t.Target != ft:
				t.Op = t.Op.BranchNegate()
				t.Target = ft
			default:
				maxID++
				out = append(out, &ir.Block{ID: maxID,
					Insns: []ir.Instr{{Op: ir.OpBr, Target: ft}}})
			}
		case t.Op == ir.OpBr:
			if t.Target == nextID {
				b.Insns = b.Insns[:len(b.Insns)-1]
			}
		}
	}
	f.Blocks = out
}
