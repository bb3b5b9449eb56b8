// Package cfg builds control-flow graphs over the IR and provides the
// analyses the paper's predictors rely on: dominators, post-dominators,
// natural loops (using the same definition as Ball and Larus), and a
// pointer-value inference that stands in for the paper's reconstruction of
// abstract syntax trees from program binaries.
package cfg

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Graph is the control-flow graph of a single function. Blocks are indexed
// densely in layout order; use Index/Block to translate between dense
// indices and ir block IDs.
type Graph struct {
	Fn     *ir.Func
	Blocks []*ir.Block // dense order == layout order
	Succ   [][]int     // dense successor indices, taken successor first
	Pred   [][]int     // dense predecessor indices

	layout ir.Layout

	// Lazily computed analyses.
	idom  []int
	ipdom []int
	loops *LoopInfo
}

// New builds the CFG for fn in time linear in its blocks and edges. The
// fall-through successor of dense block i is block i+1; every other
// successor comes from the terminator's targets. Successor and predecessor
// lists are carved out of one backing array each.
func New(fn *ir.Func) *Graph {
	n := len(fn.Blocks)
	lists := make([][]int, 2*n)
	g := &Graph{
		Fn:     fn,
		Blocks: append([]*ir.Block(nil), fn.Blocks...),
		layout: fn.Layout(),
		Succ:   lists[:n:n],
		Pred:   lists[n:],
	}
	succ := make([]int, 0, 2*n)
	counts := make([]int, 2*n)
	end := counts[:n] // block i's successors are succ[end[i-1]:end[i]]
	for i, b := range g.Blocks {
		t := b.Terminator()
		if t != nil {
			switch t.Op.Class() {
			case ir.ClassCondBranch, ir.ClassUncondBranch:
				succ = g.appendTarget(succ, b, t.Target)
			case ir.ClassIndirectJump:
				for _, id := range t.Targets {
					succ = g.appendTarget(succ, b, id)
				}
			}
		}
		if (t == nil || t.Op.Class() == ir.ClassCondBranch) && i+1 < n {
			succ = append(succ, i+1)
		}
		end[i] = len(succ)
	}
	// Block j's predecessors get inDeg[j] consecutive slots of pred, filled
	// in increasing block order.
	inDeg := counts[n:]
	for _, j := range succ {
		inDeg[j]++
	}
	pred := make([]int, len(succ))
	off := 0
	for j, d := range inDeg {
		if d > 0 {
			g.Pred[j] = pred[off : off : off+d]
			off += d
		}
	}
	start := 0
	for i := range g.Blocks {
		if end[i] > start {
			g.Succ[i] = succ[start:end[i]:end[i]]
			for _, j := range g.Succ[i] {
				g.Pred[j] = append(g.Pred[j], i)
			}
		}
		start = end[i]
	}
	return g
}

// Freeze computes every lazy analysis of g (dominators, post-dominators
// and loops). A frozen graph is never written again, so concurrent readers
// (every program linked against a library image reads the image's graphs)
// may share it.
func (g *Graph) Freeze() {
	g.Idom()
	g.Ipdom()
	g.Loops()
}

// appendTarget appends the dense index of branch target id, taken from
// block b, to succ.
func (g *Graph) appendTarget(succ []int, b *ir.Block, id int) []int {
	j := g.layout.Index(id)
	if j < 0 {
		panic(fmt.Sprintf("cfg: %s b%d: successor b%d missing", g.Fn.Name, b.ID, id))
	}
	return append(succ, j)
}

// N returns the number of blocks.
func (g *Graph) N() int { return len(g.Blocks) }

// Index returns the dense index for an ir block ID.
func (g *Graph) Index(blockID int) int {
	i := g.layout.Index(blockID)
	if i < 0 {
		panic(fmt.Sprintf("cfg: unknown block id b%d in %s", blockID, g.Fn.Name))
	}
	return i
}

// Block returns the block at dense index i.
func (g *Graph) Block(i int) *ir.Block { return g.Blocks[i] }

// Entry returns the dense index of the entry block (always 0).
func (g *Graph) Entry() int { return 0 }

// TakenSucc returns the dense index of the taken successor of the
// conditional branch ending block i, and the fall-through successor. It
// panics if block i does not end in a conditional branch with both
// successors present.
func (g *Graph) TakenSucc(i int) (taken, fallthru int) {
	b := g.Blocks[i]
	if b.Branch() == nil || len(g.Succ[i]) != 2 {
		panic(fmt.Sprintf("cfg: block b%d of %s is not a two-way branch", b.ID, g.Fn.Name))
	}
	return g.Succ[i][0], g.Succ[i][1]
}

// IsBranchBlock reports whether block i ends in a conditional branch with
// two distinct successors (the two-way branches the paper studies).
func (g *Graph) IsBranchBlock(i int) bool {
	return g.Blocks[i].Branch() != nil && len(g.Succ[i]) == 2 && g.Succ[i][0] != g.Succ[i][1]
}

// reversePostorder returns the nodes reachable from root in reverse
// postorder of the graph with successor lists succ.
func reversePostorder(succ [][]int, root int) []int {
	order := postorder(succ, root, make([]bool, len(succ)), make([]int, 0, len(succ)))
	slices.Reverse(order)
	return order
}

// postorder appends the nodes reachable from u and not yet seen to order,
// in depth-first postorder.
func postorder(succ [][]int, u int, seen []bool, order []int) []int {
	seen[u] = true
	for _, v := range succ[u] {
		if !seen[v] {
			order = postorder(succ, v, seen, order)
		}
	}
	return append(order, u)
}

// Reachable reports whether block i is reachable from the entry block.
func (g *Graph) Reachable(i int) bool {
	return i == g.Entry() || g.Idom()[i] >= 0
}
