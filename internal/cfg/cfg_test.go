package cfg

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// buildFunc assembles a function from an adjacency list. Every block gets a
// terminator: two successors become a conditional branch (first successor
// taken, second must be the next block in layout), one successor an
// unconditional branch, zero a return.
func buildFunc(t *testing.T, succs [][]int) *ir.Func {
	t.Helper()
	fn := &ir.Func{Name: "f", Language: ir.LangC}
	for i := range succs {
		fn.Blocks = append(fn.Blocks, &ir.Block{ID: i})
	}
	for i, ss := range succs {
		b := fn.Blocks[i]
		switch len(ss) {
		case 0:
			b.Insns = append(b.Insns, ir.Instr{Op: ir.OpRet})
		case 1:
			b.Insns = append(b.Insns, ir.Instr{Op: ir.OpBr, Target: ss[0]})
		case 2:
			if ss[1] != i+1 {
				t.Fatalf("block %d: fall-through successor %d must be next block %d", i, ss[1], i+1)
			}
			b.Insns = append(b.Insns, ir.Instr{Op: ir.OpBne, A: ir.R(1), Target: ss[0]})
		default:
			t.Fatalf("block %d: too many successors", i)
		}
	}
	return fn
}

// naiveDominators computes dominator sets by the quadratic dataflow
// definition — the reference the fast algorithm is checked against.
func naiveDominators(g *Graph) [][]bool {
	n := g.N()
	dom := make([][]bool, n)
	reach := make([]bool, n)
	var mark func(int)
	mark = func(u int) {
		if reach[u] {
			return
		}
		reach[u] = true
		for _, v := range g.Succ[u] {
			mark(v)
		}
	}
	mark(g.Entry())
	for i := range dom {
		dom[i] = make([]bool, n)
		for j := range dom[i] {
			dom[i][j] = reach[i] // start full for reachable nodes
		}
	}
	for j := range dom[g.Entry()] {
		dom[g.Entry()][j] = j == g.Entry()
	}
	for changed := true; changed; {
		changed = false
		for b := 0; b < n; b++ {
			if b == g.Entry() || !reach[b] {
				continue
			}
			next := make([]bool, n)
			first := true
			for _, p := range g.Pred[b] {
				if !reach[p] {
					continue
				}
				if first {
					copy(next, dom[p])
					first = false
				} else {
					for j := range next {
						next[j] = next[j] && dom[p][j]
					}
				}
			}
			next[b] = true
			for j := range next {
				if next[j] != dom[b][j] {
					dom[b] = next
					changed = true
					break
				}
			}
		}
	}
	return dom
}

func checkDominatorsAgainstNaive(t *testing.T, g *Graph) {
	t.Helper()
	ref := naiveDominators(g)
	for a := 0; a < g.N(); a++ {
		for b := 0; b < g.N(); b++ {
			if !g.Reachable(b) || !g.Reachable(a) {
				continue
			}
			want := ref[b][a]
			if got := g.Dominates(a, b); got != want {
				t.Errorf("Dominates(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	// 0 -> 1,2 -> 3
	fn := buildFunc(t, [][]int{{2, 1}, {3}, {3}, {}})
	g := New(fn)
	checkDominatorsAgainstNaive(t, g)
	if !g.Dominates(0, 3) || g.Dominates(1, 3) || g.Dominates(2, 3) {
		t.Error("diamond dominators wrong")
	}
	// Post-dominators: 3 post-dominates everything.
	for b := 0; b < 4; b++ {
		if !g.PostDominates(3, b) {
			t.Errorf("3 must post-dominate %d", b)
		}
	}
	if g.PostDominates(1, 0) || g.PostDominates(2, 0) {
		t.Error("branch arms must not post-dominate the entry")
	}
}

func TestDominatorsLoop(t *testing.T) {
	// 0 -> 1 (header); 1 -> 2,3(exit)? layout: 0,1,2,3
	// 1 branches to 2 (taken)=wait: need fallthrough = next block.
	// Use: 0->1; 1 cond (taken 3, fall 2); 2 -> 1 (back edge); 3 ret.
	fn := buildFunc(t, [][]int{{1}, {3, 2}, {1}, {}})
	g := New(fn)
	checkDominatorsAgainstNaive(t, g)
	li := g.Loops()
	if len(li.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Header != 1 {
		t.Errorf("loop header = %d, want 1", l.Header)
	}
	if !l.Contains(1) || !l.Contains(2) || l.Contains(0) || l.Contains(3) {
		t.Errorf("loop body wrong: %v", l.Blocks)
	}
	if !g.IsBackEdge(2, 1) {
		t.Error("2->1 must be a back edge")
	}
	if g.IsBackEdge(1, 2) {
		t.Error("1->2 must not be a back edge")
	}
	if !g.IsLoopExitEdge(1, 3) {
		t.Error("1->3 must be a loop exit edge")
	}
	if g.IsLoopExitEdge(1, 2) {
		t.Error("1->2 must not be a loop exit edge")
	}
	if li.Depth(2) != 1 || li.Depth(3) != 0 {
		t.Error("loop depths wrong")
	}
}

func TestNestedLoops(t *testing.T) {
	// 0 -> 1(outer hdr); 1 cond(4 exit, fall 2); 2(inner hdr) cond(taken 2? )
	// Build: 0->1; 1 cond (taken 5, fall 2); 2 cond (taken 4, fall 3);
	// 3 -> 2 (inner back edge); 4 -> 1 (outer back edge); 5 ret.
	fn := buildFunc(t, [][]int{{1}, {5, 2}, {4, 3}, {2}, {1}, {}})
	g := New(fn)
	checkDominatorsAgainstNaive(t, g)
	li := g.Loops()
	if len(li.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(li.Loops))
	}
	inner := li.HeaderLoop(2)
	outer := li.HeaderLoop(1)
	if inner == nil || outer == nil {
		t.Fatal("missing header loops")
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent must be the outer loop")
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths = %d, %d; want 2, 1", inner.Depth, outer.Depth)
	}
	if li.Innermost(3) != inner {
		t.Error("block 3 must belong to the inner loop")
	}
	if li.Innermost(4) != outer {
		t.Error("block 4 must belong to the outer loop only")
	}
}

// TestDominatorsRandom cross-checks the CHK algorithm against the naive
// reference on many random CFGs.
func TestDominatorsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		succs := make([][]int, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				succs[i] = nil // return
			case 1:
				succs[i] = []int{rng.Intn(n)}
			case 2:
				if i+1 < n {
					succs[i] = []int{rng.Intn(n), i + 1}
				} else {
					succs[i] = []int{rng.Intn(n)}
				}
			}
		}
		fn := buildFunc(t, succs)
		g := New(fn)
		checkDominatorsAgainstNaive(t, g)
		// Idom sanity: the immediate dominator strictly dominates its node.
		idom := g.Idom()
		for b := 0; b < n; b++ {
			if idom[b] < 0 {
				continue
			}
			if !g.Dominates(idom[b], b) {
				t.Fatalf("trial %d: idom(%d)=%d does not dominate", trial, b, idom[b])
			}
		}
		// Loop invariant: every back edge targets its loop's header and the
		// header dominates the whole body.
		li := g.Loops()
		for _, l := range li.Loops {
			for b := range l.Blocks {
				if !g.Dominates(l.Header, b) {
					t.Fatalf("trial %d: loop header %d does not dominate body block %d", trial, l.Header, b)
				}
			}
			for _, latch := range l.Latches {
				if !l.Contains(latch) {
					t.Fatalf("trial %d: latch %d outside loop", trial, latch)
				}
			}
		}
	}
}

func TestPostDominatorsInfiniteLoop(t *testing.T) {
	// 0 -> 1; 1 -> 1 (no exit). Post-dominators must not crash and the
	// unexitable block post-dominates only itself.
	fn := buildFunc(t, [][]int{{1}, {1}})
	g := New(fn)
	if !g.PostDominates(1, 1) {
		t.Error("block must post-dominate itself")
	}
	if g.PostDominates(0, 1) {
		t.Error("0 must not post-dominate 1")
	}
}

func TestUncondChains(t *testing.T) {
	// 0 -> 1 -> 2(header); 2 cond(taken 4, fall 3); 3 -> 2; 4 ret
	fn := buildFunc(t, [][]int{{1}, {2}, {4, 3}, {2}, {}})
	g := New(fn)
	if !g.ReachesLoopHeaderUncond(0) {
		t.Error("0 unconditionally reaches the loop header via 1")
	}
	if !g.ReachesLoopHeaderUncond(2) {
		t.Error("the header itself reaches a loop header")
	}
	if g.ReachesLoopHeaderUncond(4) {
		t.Error("the exit block does not reach a header")
	}
	// Call chains.
	fn.Blocks[1].Insns = append([]ir.Instr{{Op: ir.OpBsr, Sym: "x"}}, fn.Blocks[1].Insns...)
	g2 := New(fn)
	if !g2.ReachesCallUncond(0) {
		t.Error("0 unconditionally reaches the call in 1")
	}
	if g2.ReachesCallUncond(3) {
		t.Error("3 has no call on its unconditional path")
	}
	if !g2.ContainsReturn(4) {
		t.Error("4 contains a return")
	}
	if g2.ContainsReturn(3) {
		t.Error("3 does not reach a return unconditionally")
	}
}

func TestPointerAnalysisBasics(t *testing.T) {
	// main: R1 = &g; store R1 to slot 0; load slot 0 -> R2; branch on R2.
	fb := ir.NewFuncBuilder("main", ir.LangC)
	fb.Lda(ir.R(1), "g", 0)
	fb.Emit(ir.Instr{Op: ir.OpStq, A: ir.RegSP, B: ir.R(1), Imm: 0})
	fb.Emit(ir.Instr{Op: ir.OpLdq, Dst: ir.R(2), A: ir.RegSP, Imm: 0})
	nb := fb.NewBlockDetached()
	fb.Branch(ir.OpBeq, ir.R(2), nb)
	fb.Place(nb)
	fb.SetBlock(nb)
	fb.Ret()
	fn := fb.Func()
	fn.FrameSize = 1
	prog := &ir.Program{Name: "t", Funcs: []*ir.Func{fn}, Globals: []ir.Global{{Name: "g", Size: 1}}}
	pi := ProgramPointers(prog, map[string]*Graph{"main": New(fn)})["main"]
	// The branch is instruction 3 of block 0; operand A must be a pointer.
	if !pi.OperandIsPointer(0, 3, 0) {
		t.Error("loaded pointer not detected at the branch")
	}
	// The LDA destination itself.
	if pi.OperandIsPointer(0, 0, 0) {
		t.Error("LDA's own operand is not a pointer read")
	}
}

func TestProgramPointersInterprocedural(t *testing.T) {
	// callee(p): branch on A0 (pointer passed by main through a call).
	calleeB := ir.NewFuncBuilder("callee", ir.LangC)
	nb := calleeB.NewBlockDetached()
	calleeB.Branch(ir.OpBeq, ir.RegA0, nb)
	calleeB.Place(nb)
	calleeB.SetBlock(nb)
	calleeB.Ret()

	mainB := ir.NewFuncBuilder("main", ir.LangC)
	mainB.Lda(ir.R(1), "g", 0)
	mainB.Emit(ir.Instr{Op: ir.OpMov, Dst: ir.RegA0, A: ir.R(1)})
	mainB.Call("callee")
	mainB.Ret()

	prog := &ir.Program{Name: "t",
		Funcs:   []*ir.Func{mainB.Func(), calleeB.Func()},
		Globals: []ir.Global{{Name: "g", Size: 1}}}
	graphs := map[string]*Graph{
		"main":   New(prog.Funcs[0]),
		"callee": New(prog.Funcs[1]),
	}
	infos := ProgramPointers(prog, graphs)
	pi := infos["callee"]
	if pi == nil {
		t.Fatal("no pointer info for callee")
	}
	if !pi.OperandIsPointer(0, 0, 0) {
		t.Error("pointer argument not propagated to the callee's branch")
	}
}

func TestAllocAndReturnPointerPropagation(t *testing.T) {
	// alloc result is a pointer; a function returning it marks callers.
	mk := ir.NewFuncBuilder("mk", ir.LangC)
	mk.LoadInt(ir.RegA0, 4)
	mk.Emit(ir.Instr{Op: ir.OpRtcall, Imm: ir.RtAlloc})
	mk.Ret() // V0 = alloc result

	mainB := ir.NewFuncBuilder("main", ir.LangC)
	mainB.Call("mk")
	mainB.Emit(ir.Instr{Op: ir.OpMov, Dst: ir.R(1), A: ir.RegV0})
	nb := mainB.NewBlockDetached()
	mainB.Branch(ir.OpBne, ir.R(1), nb)
	mainB.Place(nb)
	mainB.SetBlock(nb)
	mainB.Ret()

	prog := &ir.Program{Name: "t", Funcs: []*ir.Func{mainB.Func(), mk.Func()}}
	graphs := map[string]*Graph{
		"main": New(prog.Funcs[0]),
		"mk":   New(prog.Funcs[1]),
	}
	infos := ProgramPointers(prog, graphs)
	pi := infos["main"]
	// The branch is instruction 2 of block 0 in main.
	if !pi.OperandIsPointer(0, 2, 0) {
		t.Error("pointer-returning call not propagated to the caller's branch")
	}
}
