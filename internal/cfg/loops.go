package cfg

import (
	"cmp"
	"slices"

	"repro/internal/ir"
)

// Loop is a natural loop, identified per Ball and Larus: a back edge u→h
// (where h dominates u) names the loop with header h, and the loop body is
// every block that can reach u without passing through h. Loops sharing a
// header are merged.
type Loop struct {
	Header  int          // dense index of the loop header
	Blocks  map[int]bool // loop body including header
	Latches []int        // sources of the back edges into Header
	Parent  *Loop        // innermost enclosing loop, or nil
	Depth   int          // nesting depth, 1 for outermost
}

// Contains reports whether the loop body contains block i.
func (l *Loop) Contains(i int) bool { return l.Blocks[i] }

// LoopInfo holds all natural loops of a function.
type LoopInfo struct {
	Loops     []*Loop
	byHeader  []*Loop // the loop headed by each block, or nil
	innermost []*Loop // innermost loop containing each block, or nil
}

// Loops computes (once) and returns the function's natural-loop information.
func (g *Graph) Loops() *LoopInfo {
	if g.loops == nil {
		g.loops = g.computeLoops()
	}
	return g.loops
}

func (g *Graph) computeLoops() *LoopInfo {
	// A function without loops allocates only li; the per-block tables
	// stay nil and the accessors read them as empty.
	li := &LoopInfo{}
	var stack []int
	// Find back edges: u -> h where h dominates u (and both reachable).
	for u := 0; u < g.N(); u++ {
		if !g.Reachable(u) {
			continue
		}
		for _, h := range g.Succ[u] {
			if g.Dominates(h, u) {
				if li.byHeader == nil {
					li.byHeader = make([]*Loop, g.N())
				}
				loop := li.byHeader[h]
				if loop == nil {
					loop = &Loop{Header: h, Blocks: map[int]bool{h: true}}
					li.byHeader[h] = loop
					li.Loops = append(li.Loops, loop)
				}
				loop.Latches = append(loop.Latches, u)
				// Natural-loop body: backward reachability from u to h.
				stack = append(stack[:0], u)
				for len(stack) > 0 {
					b := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if loop.Blocks[b] {
						continue
					}
					loop.Blocks[b] = true
					for _, p := range g.Pred[b] {
						if g.Reachable(p) {
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Deterministic order: by header index, inner (smaller) loops after the
	// outer loops that contain them; sorting by size descending then header
	// gives a stable parent-assignment order.
	slices.SortFunc(li.Loops, func(a, b *Loop) int {
		if c := cmp.Compare(len(b.Blocks), len(a.Blocks)); c != 0 {
			return c
		}
		return cmp.Compare(a.Header, b.Header)
	})
	// Parent links: the smallest strictly-larger loop containing the header.
	// Loops are sorted largest-first, so scanning backward from i finds the
	// tightest enclosing loop first.
	for i, l := range li.Loops {
		for j := i - 1; j >= 0; j-- {
			outer := li.Loops[j]
			if outer != l && outer.Contains(l.Header) && len(outer.Blocks) > len(l.Blocks) {
				l.Parent = outer
				break
			}
		}
		l.Depth = 1
		for p := l.Parent; p != nil; p = p.Parent {
			l.Depth++
		}
	}
	// Innermost loop per block: the smallest loop containing it.
	if len(li.Loops) == 0 {
		return li
	}
	li.innermost = make([]*Loop, g.N())
	for _, l := range li.Loops { // largest first, so later (smaller) wins
		for b := range l.Blocks {
			li.innermost[b] = l
		}
	}
	return li
}

// IsHeader reports whether block i is a loop header.
func (li *LoopInfo) IsHeader(i int) bool { return li.HeaderLoop(i) != nil }

// HeaderLoop returns the loop headed by block i, or nil.
func (li *LoopInfo) HeaderLoop(i int) *Loop {
	if i < 0 || i >= len(li.byHeader) {
		return nil
	}
	return li.byHeader[i]
}

// Innermost returns the innermost loop containing block i, or nil.
func (li *LoopInfo) Innermost(i int) *Loop {
	if i < 0 || i >= len(li.innermost) {
		return nil
	}
	return li.innermost[i]
}

// Depth returns the loop-nesting depth of block i (0 if not in a loop).
func (li *LoopInfo) Depth(i int) int {
	if l := li.Innermost(i); l != nil {
		return l.Depth
	}
	return 0
}

// IsBackEdge reports whether the edge u→v is a loop back edge (v is a loop
// header that dominates u).
func (g *Graph) IsBackEdge(u, v int) bool {
	if !g.Reachable(u) {
		return false
	}
	for _, s := range g.Succ[u] {
		if s == v && g.Dominates(v, u) && g.Loops().IsHeader(v) {
			return true
		}
	}
	return false
}

// IsLoopExitEdge reports whether the edge u→v leaves some loop containing u
// (u in loop L, v not in L).
func (g *Graph) IsLoopExitEdge(u, v int) bool {
	for l := g.Loops().Innermost(u); l != nil; l = l.Parent {
		if !l.Contains(v) {
			return true
		}
	}
	return false
}

// maxForwardChain bounds the "unconditionally passes control to" walks below
// so that pathological chains cannot loop forever.
const maxForwardChain = 16

// uncondNext returns the single successor of block i when control leaves i
// unconditionally (implicit fall-through or an unconditional branch), or -1.
// Blocks that end in calls still pass control unconditionally.
func (g *Graph) uncondNext(i int) int {
	if g.Blocks[i].Branch() != nil {
		return -1
	}
	if len(g.Succ[i]) != 1 {
		return -1
	}
	return g.Succ[i][0]
}

// ReachesLoopHeaderUncond reports whether block i is a loop header or
// unconditionally passes control to one (the paper's feature 12: "LH — the
// successor basic block is a loop header or unconditionally passes control
// to a basic block which is a loop header"). This also captures loop
// pre-headers for the Loop Header heuristic.
func (g *Graph) ReachesLoopHeaderUncond(i int) bool {
	li := g.Loops()
	for step := 0; step < maxForwardChain && i >= 0; step++ {
		if li.IsHeader(i) {
			return true
		}
		i = g.uncondNext(i)
	}
	return false
}

// ReachesCallUncond reports whether block i contains a procedure call or
// unconditionally passes control to a block that does (feature 16).
func (g *Graph) ReachesCallUncond(i int) bool {
	for step := 0; step < maxForwardChain && i >= 0; step++ {
		if g.Blocks[i].ContainsCall() {
			return true
		}
		i = g.uncondNext(i)
	}
	return false
}

// ContainsReturn reports whether block i ends in a return or unconditionally
// passes control to a block that does (used by the Return heuristic).
func (g *Graph) ContainsReturn(i int) bool {
	for step := 0; step < maxForwardChain && i >= 0; step++ {
		if t := g.Blocks[i].Terminator(); t != nil && t.Op.Class() == ir.ClassReturn {
			return true
		}
		i = g.uncondNext(i)
	}
	return false
}
