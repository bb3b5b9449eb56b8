package cfg_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/ir"
)

// The oracles below compute what cfg.New, Idom, Ipdom, Loops and
// ProgramPointers compute, the direct way: successors from ir.Func.Succs,
// block IDs through a map, one register map per block per pass, and every
// function re-analyzed in every round. They are slow, but each step reads
// as its definition.

// oracleNew builds the CFG with successors from ir.Func.Succs and block IDs
// resolved through a map.
func oracleNew(fn *ir.Func) *cfg.Graph {
	g := &cfg.Graph{
		Fn:     fn,
		Blocks: append([]*ir.Block(nil), fn.Blocks...),
	}
	idToIdx := make(map[int]int, len(fn.Blocks))
	for i, b := range g.Blocks {
		idToIdx[b.ID] = i
	}
	g.Succ = make([][]int, len(g.Blocks))
	g.Pred = make([][]int, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, sid := range fn.Succs(b) {
			j, ok := idToIdx[sid]
			if !ok {
				panic(fmt.Sprintf("cfg: %s b%d: successor b%d missing", fn.Name, b.ID, sid))
			}
			g.Succ[i] = append(g.Succ[i], j)
			g.Pred[j] = append(g.Pred[j], i)
		}
	}
	return g
}

// oracleReversePostorder returns the blocks reachable from entry in reverse
// postorder of the forward CFG.
func oracleReversePostorder(g *cfg.Graph) []int {
	seen := make([]bool, g.N())
	var order []int
	var dfs func(int)
	dfs = func(u int) {
		seen[u] = true
		for _, v := range g.Succ[u] {
			if !seen[v] {
				dfs(v)
			}
		}
		order = append(order, u)
	}
	dfs(g.Entry())
	// Reverse into RPO.
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return order
}

func oracleIdom(g *cfg.Graph) []int {
	return oracleComputeIdom(g.N(), g.Entry(), oracleReversePostorder(g), g.Pred)
}

// oracleComputeIdom runs the CHK iterative algorithm. rpo must list the
// nodes reachable from entry in reverse postorder. Unreachable nodes keep
// idom -1.
func oracleComputeIdom(n, entry int, rpo []int, pred [][]int) []int {
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[entry] = entry
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range pred[b] {
				if idom[p] < 0 || rpoNum[p] < 0 {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = -1
	return idom
}

// oracleIpdom computes post-dominators by running the same algorithm on the
// reverse graph extended with a virtual exit node.
func oracleIpdom(g *cfg.Graph) []int {
	n := g.N()
	exit := n // virtual exit node index
	// Reverse graph: preds of the reverse graph are the succs of the forward
	// graph; the virtual exit has an edge from every block with no forward
	// successors.
	rsucc := make([][]int, n+1) // successors in the reverse graph
	rpred := make([][]int, n+1) // predecessors in the reverse graph
	for i := 0; i < n; i++ {
		if len(g.Succ[i]) == 0 {
			rsucc[exit] = append(rsucc[exit], i)
			rpred[i] = append(rpred[i], exit)
		}
		for _, s := range g.Succ[i] {
			rsucc[s] = append(rsucc[s], i)
			rpred[i] = append(rpred[i], s)
		}
	}
	// Reverse postorder of the reverse graph from the virtual exit.
	seen := make([]bool, n+1)
	var order []int
	var dfs func(int)
	dfs = func(u int) {
		seen[u] = true
		for _, v := range rsucc[u] {
			if !seen[v] {
				dfs(v)
			}
		}
		order = append(order, u)
	}
	dfs(exit)
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	ipdomExt := oracleComputeIdom(n+1, exit, order, rpred)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		if ipdomExt[i] == exit || ipdomExt[i] < 0 {
			out[i] = -1
		} else {
			out[i] = ipdomExt[i]
		}
	}
	return out
}

// oracleLoopInfo is the natural-loop result of oracleLoops.
type oracleLoopInfo struct {
	Loops     []*cfg.Loop
	byHeader  map[int]*cfg.Loop
	innermost []*cfg.Loop // innermost loop containing each block, or nil
}

// oracleLoops finds the natural loops; idom is the graph's dominator tree.
func oracleLoops(g *cfg.Graph, idom []int) *oracleLoopInfo {
	reachable := func(i int) bool { return i == g.Entry() || idom[i] >= 0 }
	dominates := func(a, b int) bool {
		for {
			if a == b {
				return true
			}
			if b == g.Entry() || idom[b] < 0 {
				return false
			}
			b = idom[b]
		}
	}
	li := &oracleLoopInfo{byHeader: make(map[int]*cfg.Loop)}
	// Find back edges: u -> h where h dominates u (and both reachable).
	for u := 0; u < g.N(); u++ {
		if !reachable(u) {
			continue
		}
		for _, h := range g.Succ[u] {
			if dominates(h, u) {
				loop := li.byHeader[h]
				if loop == nil {
					loop = &cfg.Loop{Header: h, Blocks: map[int]bool{h: true}}
					li.byHeader[h] = loop
					li.Loops = append(li.Loops, loop)
				}
				loop.Latches = append(loop.Latches, u)
				// Natural-loop body: backward reachability from u to h.
				stack := []int{u}
				for len(stack) > 0 {
					b := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if loop.Blocks[b] {
						continue
					}
					loop.Blocks[b] = true
					for _, p := range g.Pred[b] {
						if reachable(p) {
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
	sort.Slice(li.Loops, func(i, j int) bool {
		if len(li.Loops[i].Blocks) != len(li.Loops[j].Blocks) {
			return len(li.Loops[i].Blocks) > len(li.Loops[j].Blocks)
		}
		return li.Loops[i].Header < li.Loops[j].Header
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
	li.innermost = make([]*cfg.Loop, g.N())
	for _, l := range li.Loops { // largest first, so later (smaller) wins
		for b := range l.Blocks {
			li.innermost[b] = l
		}
	}
	return li
}

// oraclePointerInfo is the pointer-inference result of
// oracleComputePointers.
type oraclePointerInfo struct {
	g *cfg.Graph
	// ptrAt[b][i] records, for instruction i of dense block b, which of its
	// register operands were pointer-valued at that point: bit 0 for A,
	// bit 1 for B.
	ptrAt [][]uint8
	// callPtrArgs records, per direct callee, which argument registers were
	// observed pointer-valued at any call site in this function.
	callPtrArgs map[string]map[ir.Reg]bool
	// returnsPtr records whether any return site had a pointer-valued V0.
	returnsPtr bool
}

// oraclePtrFacts carries the interprocedural facts oracleProgramPointers
// iterates on.
type oraclePtrFacts struct {
	args map[string]map[ir.Reg]bool
	rets map[string]bool
}

const (
	oraclePtrOperandA = 1 << 0
	oraclePtrOperandB = 1 << 1
)

type oracleSlotKey struct {
	base string // "" for stack-relative (SP), else global symbol
	off  int64
}

func oracleComputePointers(g *cfg.Graph, entryPtrArgs map[ir.Reg]bool, retFacts map[string]bool) *oraclePointerInfo {
	pi := &oraclePointerInfo{g: g, ptrAt: make([][]uint8, g.N())}
	for b := 0; b < g.N(); b++ {
		pi.ptrAt[b] = make([]uint8, len(g.Blocks[b].Insns))
	}
	ptrSlots := make(map[oracleSlotKey]bool)
	// Iterate to a fixed point on the slot set; register state is tracked
	// within each block only (the code generator stores locals to the frame
	// between statements, so block-local tracking plus slot typing recovers
	// essentially all pointer flow).
	for pass := 0; pass < 6; pass++ {
		changed := false
		pi.callPtrArgs = make(map[string]map[ir.Reg]bool)
		for b := 0; b < g.N(); b++ {
			regPtr := make(map[ir.Reg]bool)
			if b == g.Entry() {
				for r, isPtr := range entryPtrArgs {
					if isPtr {
						regPtr[r] = true
					}
				}
			}
			for i := range g.Blocks[b].Insns {
				in := &g.Blocks[b].Insns[i]
				var mark uint8
				if regPtr[in.A] {
					mark |= oraclePtrOperandA
				}
				if !in.UseImm && regPtr[in.B] {
					mark |= oraclePtrOperandB
				}
				pi.ptrAt[b][i] = mark
				switch in.Op {
				case ir.OpLda:
					regPtr[in.Dst] = true
				case ir.OpAddQ, ir.OpSubQ:
					regPtr[in.Dst] = regPtr[in.A] || (!in.UseImm && regPtr[in.B])
				case ir.OpMov:
					regPtr[in.Dst] = regPtr[in.A]
				case ir.OpLdq:
					key, ok := pi.slotOf(b, i, in)
					isPtr := ok && ptrSlots[key]
					regPtr[in.Dst] = isPtr
				case ir.OpStq:
					if regPtr[in.B] {
						if key, ok := pi.slotOf(b, i, in); ok && !ptrSlots[key] {
							ptrSlots[key] = true
							changed = true
						}
					}
				case ir.OpBsr:
					for argIdx := 0; argIdx < 6; argIdx++ {
						r := ir.Reg(int(ir.RegA0) + argIdx)
						if regPtr[r] {
							if pi.callPtrArgs[in.Sym] == nil {
								pi.callPtrArgs[in.Sym] = make(map[ir.Reg]bool)
							}
							pi.callPtrArgs[in.Sym][r] = true
						}
					}
					// The return register carries a pointer when the callee
					// is known (interprocedurally) to return one.
					regPtr[ir.RegV0] = retFacts[in.Sym]
				case ir.OpRtcall:
					// The allocator intrinsic returns a fresh heap pointer.
					regPtr[ir.RegV0] = in.Imm == ir.RtAlloc
				case ir.OpRet:
					if regPtr[ir.RegV0] {
						pi.returnsPtr = true
					}
				default:
					if d, ok := in.Def(); ok {
						regPtr[d] = false
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return pi
}

// slotOf identifies the abstract memory slot addressed by a load/store when
// the base register is the stack pointer or was just defined by an LDA of a
// global within the same block; otherwise it reports no slot.
func (pi *oraclePointerInfo) slotOf(b, i int, in *ir.Instr) (oracleSlotKey, bool) {
	if in.A == ir.RegSP {
		return oracleSlotKey{base: "", off: in.Imm}, true
	}
	// Walk back for the defining LDA of the base register.
	insns := pi.g.Blocks[b].Insns
	for j := i - 1; j >= 0; j-- {
		d, ok := insns[j].Def()
		if !ok || d != in.A {
			continue
		}
		if insns[j].Op == ir.OpLda {
			return oracleSlotKey{base: insns[j].Sym, off: insns[j].Imm + in.Imm}, true
		}
		return oracleSlotKey{}, false
	}
	return oracleSlotKey{}, false
}

// oracleProgramPointers re-analyzes every function in every round.
func oracleProgramPointers(p *ir.Program, graphs map[string]*cfg.Graph) map[string]*oraclePointerInfo {
	facts := oraclePtrFacts{
		args: make(map[string]map[ir.Reg]bool),
		rets: make(map[string]bool),
	}
	infos := make(map[string]*oraclePointerInfo)
	for round := 0; round < 6; round++ {
		changed := false
		for _, f := range p.Funcs {
			g := graphs[f.Name]
			if g == nil {
				continue
			}
			pi := oracleComputePointers(g, facts.args[f.Name], facts.rets)
			infos[f.Name] = pi
			if pi.returnsPtr && !facts.rets[f.Name] {
				facts.rets[f.Name] = true
				changed = true
			}
			for callee, regs := range pi.callPtrArgs {
				if facts.args[callee] == nil {
					facts.args[callee] = make(map[ir.Reg]bool)
				}
				for r := range regs {
					if !facts.args[callee][r] {
						facts.args[callee][r] = true
						changed = true
					}
				}
			}
		}
		if !changed && round > 0 {
			break
		}
	}
	return infos
}

// checkAgainstOracle compares every analysis of prog with its oracle.
func checkAgainstOracle(t *testing.T, prog *ir.Program) {
	t.Helper()
	graphs := make(map[string]*cfg.Graph, len(prog.Funcs))
	oracles := make(map[string]*cfg.Graph, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		g, og := cfg.New(fn), oracleNew(fn)
		graphs[fn.Name], oracles[fn.Name] = g, og
		where := prog.Name + "." + fn.Name
		if !reflect.DeepEqual(g.Succ, og.Succ) {
			t.Fatalf("%s: Succ = %v, oracle %v", where, g.Succ, og.Succ)
		}
		if !reflect.DeepEqual(g.Pred, og.Pred) {
			t.Fatalf("%s: Pred = %v, oracle %v", where, g.Pred, og.Pred)
		}
		for i, b := range fn.Blocks {
			if g.Index(b.ID) != i {
				t.Fatalf("%s: Index(b%d) = %d, want %d", where, b.ID, g.Index(b.ID), i)
			}
		}
		idom := oracleIdom(og)
		if !reflect.DeepEqual(g.Idom(), idom) {
			t.Fatalf("%s: Idom = %v, oracle %v", where, g.Idom(), idom)
		}
		if ipdom := oracleIpdom(og); !reflect.DeepEqual(g.Ipdom(), ipdom) {
			t.Fatalf("%s: Ipdom = %v, oracle %v", where, g.Ipdom(), ipdom)
		}
		checkLoops(t, where, g, oracleLoops(og, idom))
	}
	infos := cfg.ProgramPointers(prog, graphs)
	oinfos := oracleProgramPointers(prog, oracles)
	if len(infos) != len(oinfos) {
		t.Fatalf("%s: pointer info for %d functions, oracle %d", prog.Name, len(infos), len(oinfos))
	}
	for name, opi := range oinfos {
		where := prog.Name + "." + name
		ptrAt, callArgs, returnsPtr := cfg.PointerResult(infos[name])
		if !reflect.DeepEqual(ptrAt, opi.ptrAt) {
			t.Fatalf("%s: ptrAt = %v, oracle %v", where, ptrAt, opi.ptrAt)
		}
		want := make(map[string]uint8)
		for callee, regs := range opi.callPtrArgs {
			for r, isPtr := range regs {
				if isPtr {
					want[callee] |= 1 << (r - ir.RegA0)
				}
			}
		}
		if !reflect.DeepEqual(callArgs, want) {
			t.Fatalf("%s: callPtrArgs = %v, oracle %v", where, callArgs, want)
		}
		if returnsPtr != opi.returnsPtr {
			t.Fatalf("%s: returnsPtr = %v, oracle %v", where, returnsPtr, opi.returnsPtr)
		}
	}
}

// checkLoops compares a graph's natural loops with the oracle's.
func checkLoops(t *testing.T, where string, g *cfg.Graph, want *oracleLoopInfo) {
	t.Helper()
	got := g.Loops()
	if len(got.Loops) != len(want.Loops) {
		t.Fatalf("%s: %d loops, oracle %d", where, len(got.Loops), len(want.Loops))
	}
	header := func(l *cfg.Loop) int {
		if l == nil {
			return -1
		}
		return l.Header
	}
	for k, l := range got.Loops {
		w := want.Loops[k]
		if l.Header != w.Header || !reflect.DeepEqual(l.Blocks, w.Blocks) ||
			!reflect.DeepEqual(l.Latches, w.Latches) || l.Depth != w.Depth ||
			header(l.Parent) != header(w.Parent) {
			t.Fatalf("%s: loop %d = {h%d %v latches %v depth %d parent h%d}, oracle {h%d %v latches %v depth %d parent h%d}",
				where, k, l.Header, l.Blocks, l.Latches, l.Depth, header(l.Parent),
				w.Header, w.Blocks, w.Latches, w.Depth, header(w.Parent))
		}
	}
	for i := 0; i < g.N(); i++ {
		if header(got.HeaderLoop(i)) != header(want.byHeader[i]) {
			t.Fatalf("%s: HeaderLoop(%d) = h%d, oracle h%d", where, i, header(got.HeaderLoop(i)), header(want.byHeader[i]))
		}
		if header(got.Innermost(i)) != header(want.innermost[i]) {
			t.Fatalf("%s: Innermost(%d) = h%d, oracle h%d", where, i, header(got.Innermost(i)), header(want.innermost[i]))
		}
	}
}

// TestAnalysisMatchesOracle runs both implementations over every corpus
// program under every compiler configuration, and over one generated
// program per mix.
func TestAnalysisMatchesOracle(t *testing.T) {
	targets := append([]codegen.Target{codegen.Default, codegen.MIPSCC}, codegen.Compilers...)
	seen := make(map[string]bool)
	for _, tgt := range targets {
		if seen[tgt.Name] {
			continue
		}
		seen[tgt.Name] = true
		for _, e := range corpus.All() {
			prog, err := e.Compile(tgt)
			if err != nil {
				t.Fatalf("%s under %s: %v", e.Name, tgt.Name, err)
			}
			checkAgainstOracle(t, prog)
		}
	}
	for _, mix := range gencorpus.AllMixes() {
		e := gencorpus.Generate(1, mix).Entry()
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		checkAgainstOracle(t, prog)
	}
}

// FuzzAnalysis compiles arbitrary MinC source linked with the runtime
// library; every program that compiles must analyze exactly as the oracles
// do. The seeds are FuzzParse's: the corpus programs, the runtime library
// and a few adversarial shapes.
//
// CI runs this for a short budget (go test -fuzz=FuzzAnalysis -fuzztime=20s).
func FuzzAnalysis(f *testing.F) {
	for _, e := range corpus.All() {
		f.Add(e.Source)
	}
	f.Add(corpus.StdlibSource)
	f.Add(corpus.Stdlib2Source)
	f.Add("int main() { return 0; }")
	f.Add(`int main() { /* unterminated`)
	f.Add(`int main() { float f; f = 1e999999; return (int)f; }`)
	f.Add("int x = 99999999999999999999999999999;")
	f.Add("void f(" + string(rune(0)) + ") {}")
	f.Fuzz(func(t *testing.T, src string) {
		e := corpus.Entry{Name: "fuzz", Language: ir.LangC, Source: src}
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			return
		}
		checkAgainstOracle(t, prog)
	})
}
