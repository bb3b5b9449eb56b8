package cfg

import (
	"bytes"

	"repro/internal/ir"
)

// PointerInfo is a lightweight pointer-value inference over the IR. The
// paper's Pointer heuristic needs to know whether a branch compares a
// pointer against null or two pointers against each other; Ball and Larus
// (and this paper) recovered that information from the program binary by
// reconstructing an abstract syntax tree. We do the moral equivalent: a
// fixed-point abstract interpretation over the two-point lattice
// {not-pointer, pointer}, tracking registers block-locally and memory slots
// (stack frame words and global words) function-globally.
//
// A register becomes pointer-valued when it is defined by LDA (address of a
// global), by pointer arithmetic (add/sub with a pointer operand), by a copy
// of a pointer register, or by a load from a slot previously observed to
// hold a pointer. Stores of pointer-valued registers mark the target slot.
// Argument registers are marked pointer-valued when any call site passes a
// pointer in them (propagated interprocedurally to the callee's entry).
type PointerInfo struct {
	g *Graph
	// ptrAt[b][i] records, for instruction i of dense block b, which of its
	// register operands were pointer-valued at that point: bit 0 for A,
	// bit 1 for B. All rows share one slab.
	ptrAt [][]uint8
	// callArgs[k] is the mask of argument registers A0..A5 (bit n for An)
	// that held a pointer at the k-th direct call of the function, counting
	// calls in layout order.
	callArgs []uint8
	// returnsPtr records whether any return site had a pointer-valued V0.
	returnsPtr bool
}

const (
	ptrOperandA = 1 << 0
	ptrOperandB = 1 << 1
)

// numArgRegs is the number of integer argument registers, A0..A5.
const numArgRegs = 6

type slotKey struct {
	base string // "" for stack-relative (SP), else global symbol
	off  int64
}

// regBit is r's bit in a register set. Verify keeps registers below
// ir.NumRegs (64), so a set fits one word.
func regBit(r ir.Reg) uint64 { return 1 << (r & (ir.NumRegs - 1)) }

// compute runs the inference into pi. entryArgs is the mask of argument
// registers (bit n for An) that carry pointers into the function; retPtr
// reports, for the k-th direct call, whether its callee returns a pointer.
// It is a pure function of (pi's graph, entryArgs, the retPtr bits): every
// pass rewrites every operand mark and call mask, so nothing pi held
// before reaches the result. LibraryPointers relies on this to reuse a
// recorded result.
func (pi *PointerInfo) compute(entryArgs uint8, retPtr func(k int) bool) {
	g := pi.g
	pi.returnsPtr = false
	var ptrSlots map[slotKey]bool
	// Iterate to a fixed point on the slot set; register state is tracked
	// within each block only (the code generator stores locals to the frame
	// between statements, so block-local tracking plus slot typing recovers
	// essentially all pointer flow).
	for pass := 0; pass < 6; pass++ {
		changed := false
		call := 0
		for b := 0; b < g.N(); b++ {
			var regs uint64 // pointer-valued registers
			if b == g.Entry() {
				regs = uint64(entryArgs) << ir.RegA0
			}
			set := func(r ir.Reg, isPtr bool) {
				if isPtr {
					regs |= regBit(r)
				} else {
					regs &^= regBit(r)
				}
			}
			row := pi.ptrAt[b]
			for i := range g.Blocks[b].Insns {
				in := &g.Blocks[b].Insns[i]
				aPtr := regs&regBit(in.A) != 0
				bPtr := !in.UseImm && regs&regBit(in.B) != 0
				var mark uint8
				if aPtr {
					mark |= ptrOperandA
				}
				if bPtr {
					mark |= ptrOperandB
				}
				row[i] = mark
				switch in.Op {
				case ir.OpLda:
					set(in.Dst, true)
				case ir.OpAddQ, ir.OpSubQ:
					set(in.Dst, aPtr || bPtr)
				case ir.OpMov:
					set(in.Dst, aPtr)
				case ir.OpLdq:
					// Until some store marks a slot, every load is a
					// non-pointer; skip the address walk.
					isPtr := false
					if len(ptrSlots) > 0 {
						key, ok := pi.slotOf(b, i, in)
						isPtr = ok && ptrSlots[key]
					}
					set(in.Dst, isPtr)
				case ir.OpStq:
					if regs&regBit(in.B) != 0 {
						if key, ok := pi.slotOf(b, i, in); ok && !ptrSlots[key] {
							if ptrSlots == nil {
								ptrSlots = make(map[slotKey]bool)
							}
							ptrSlots[key] = true
							changed = true
						}
					}
				case ir.OpBsr:
					pi.callArgs[call] = uint8(regs>>ir.RegA0) & (1<<numArgRegs - 1)
					// The return register carries a pointer when the callee
					// is known (interprocedurally) to return one.
					set(ir.RegV0, retPtr(call))
					call++
				case ir.OpRtcall:
					// The allocator intrinsic returns a fresh heap pointer.
					set(ir.RegV0, in.Imm == ir.RtAlloc)
				case ir.OpRet:
					if regs&regBit(ir.RegV0) != 0 {
						pi.returnsPtr = true
					}
				default:
					if d, ok := in.Def(); ok {
						set(d, false)
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// slotOf identifies the abstract memory slot addressed by a load/store when
// the base register is the stack pointer or was just defined by an LDA of a
// global within the same block; otherwise it reports no slot.
func (pi *PointerInfo) slotOf(b, i int, in *ir.Instr) (slotKey, bool) {
	if in.A == ir.RegSP {
		return slotKey{base: "", off: in.Imm}, true
	}
	// Walk back for the defining LDA of the base register.
	insns := pi.g.Blocks[b].Insns
	for j := i - 1; j >= 0; j-- {
		d, ok := insns[j].Def()
		if !ok || d != in.A {
			continue
		}
		if insns[j].Op == ir.OpLda {
			return slotKey{base: insns[j].Sym, off: insns[j].Imm + in.Imm}, true
		}
		return slotKey{}, false
	}
	return slotKey{}, false
}

// OperandIsPointer reports whether, at instruction index i of dense block b,
// the given operand register (operand 0 = A, 1 = B) held a pointer value.
func (pi *PointerInfo) OperandIsPointer(b, i, operand int) bool {
	if b < 0 || b >= len(pi.ptrAt) || i < 0 || i >= len(pi.ptrAt[b]) {
		return false
	}
	if operand == 0 {
		return pi.ptrAt[b][i]&ptrOperandA != 0
	}
	return pi.ptrAt[b][i]&ptrOperandB != 0
}

// SameFacts reports whether pi and o mark the same operands pointer-valued
// at every instruction: whether every OperandIsPointer query answers the
// same on both.
func (pi *PointerInfo) SameFacts(o *PointerInfo) bool {
	if pi == o {
		return true
	}
	if len(pi.ptrAt) != len(o.ptrAt) {
		return false
	}
	for b, row := range pi.ptrAt {
		if !bytes.Equal(row, o.ptrAt[b]) {
			return false
		}
	}
	return true
}

// ProgramPointers computes pointer inference for every function of a
// program, propagating two interprocedural facts across direct calls until
// a fixed point: pointer-valued argument registers (a call site passing a
// pointer in An makes the callee's entry treat An as pointer-valued) and
// pointer-returning functions (a callee observed returning a pointer makes
// V0 pointer-valued after calls to it).
//
// Each round visits the functions in program order and merges a function's
// facts as soon as it is analyzed, for at most six rounds. A function's
// result depends only on its graph, its own argument facts and its callees'
// return facts, so a function is analyzed again only when one of those
// facts has changed since its last analysis; otherwise its result, and so
// every fact it would merge, is the one it already has.
func ProgramPointers(p *ir.Program, graphs map[string]*Graph) map[string]*PointerInfo {
	return pointers(p.Funcs, graphs, nil, nil)
}

// LibraryPointers is the pointer inference of a runtime-library image's
// functions analyzed as a program of their own, kept for the programs
// linked against the image: each function's graph and resolved direct
// callees, and every result the image-alone run computed, keyed by the
// inputs it was computed from. A compute is a pure function of the graph,
// the entry-argument mask and the callees' return bits (PointerInfo's
// compute), so a linked program whose run reaches the same inputs for a
// library function takes the recorded result instead of computing it.
// A LibraryPointers is read-only once built and safe for concurrent use;
// so are the recorded PointerInfos that linked runs share.
type LibraryPointers struct {
	graphs  []*Graph       // indexed like the image's functions
	index   map[string]int // function name -> index
	callees [][]int        // index of each direct call's callee, or -1
	memo    [][]memoEntry  // every compute of each function, in run order
	infos   map[string]*PointerInfo
}

// memoEntry is one recorded compute: its inputs and its result.
type memoEntry struct {
	args uint8
	rets []uint64 // bit k: the callee of the k-th direct call returned a pointer
	pi   *PointerInfo
}

// NewLibraryPointers runs ProgramPointers over fns, a library's functions
// as a program of their own, with graphs holding each one's graph by name,
// and records every compute it makes. Every function must have a graph
// and a name of its own. Facts returns the run's result.
func NewLibraryPointers(fns []*ir.Func, graphs map[string]*Graph) *LibraryPointers {
	l := &LibraryPointers{
		graphs: make([]*Graph, len(fns)),
		index:  make(map[string]int, len(fns)),
		memo:   make([][]memoEntry, len(fns)),
	}
	for k, f := range fns {
		l.graphs[k] = graphs[f.Name]
		l.index[f.Name] = k
	}
	l.infos = pointers(fns, graphs, nil, l)
	return l
}

// Facts returns the pointer facts of the library's functions alone, by
// name: what ProgramPointers returns for them.
func (l *LibraryPointers) Facts() map[string]*PointerInfo { return l.infos }

// Linked computes what ProgramPointers computes for p, a program linked
// against l's library: p's last functions are the library's, in order,
// whose graphs are l's, and p's own functions, with graphs by name in
// graphs, share no name with them. Only the own functions' instructions
// are walked to set the run up. A library function's compute whose inputs
// equal a recorded one's takes that result, shared and never written;
// any other compute writes into storage of this run's own.
func (l *LibraryPointers) Linked(p *ir.Program, graphs map[string]*Graph) map[string]*PointerInfo {
	return pointers(p.Funcs[:len(p.Funcs)-len(l.graphs)], graphs, l, nil)
}

// find returns base plus the index of l's function named name, or -1 if
// l is nil or has no such function.
func (l *LibraryPointers) find(name string, base int) int {
	if l != nil {
		if k, ok := l.index[name]; ok {
			return base + k
		}
	}
	return -1
}

// lookup returns the recorded result of library function k's compute
// from entry-argument mask args and the return bits ret gives each direct
// call, or nil.
func (l *LibraryPointers) lookup(k int, args uint8, ret func(call int) bool) *PointerInfo {
	for _, e := range l.memo[k] {
		if e.args != args {
			continue
		}
		same := true
		for call := range l.callees[k] {
			if (e.rets[call/64]>>(call%64)&1 != 0) != ret(call) {
				same = false
				break
			}
		}
		if same {
			return e.pi
		}
	}
	return nil
}

// record appends a copy of pi, computed for library function k from args
// and the return bits ret gives each direct call, to k's memo.
func (l *LibraryPointers) record(k int, args uint8, ret func(call int) bool, pi *PointerInfo) {
	calls := len(pi.callArgs)
	rets := make([]uint64, (calls+63)/64)
	for call := 0; call < calls; call++ {
		if ret(call) {
			rets[call/64] |= 1 << (call % 64)
		}
	}
	cp := newPointerInfo(pi.g, calls)
	for b, row := range pi.ptrAt {
		copy(cp.ptrAt[b], row)
	}
	copy(cp.callArgs, pi.callArgs)
	cp.returnsPtr = pi.returnsPtr
	l.memo[k] = append(l.memo[k], memoEntry{args: args, rets: rets, pi: cp})
}

// newPointerInfo returns empty storage for g's facts with room for calls
// direct calls.
func newPointerInfo(g *Graph, calls int) *PointerInfo {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Insns)
	}
	pi := &PointerInfo{g: g, ptrAt: make([][]uint8, g.N()), callArgs: make([]uint8, calls)}
	marks := make([]uint8, n)
	for b, blk := range g.Blocks {
		k := len(blk.Insns)
		pi.ptrAt[b], marks = marks[:k:k], marks[k:]
	}
	return pi
}

// pointers runs the inference of ProgramPointers over own, the functions
// that have graphs in graphs, followed by lib's functions when lib is
// non-nil (Linked), and returns the facts by function name. With rec
// non-nil, own is rec's library: every compute is recorded into rec, with
// the callees each function's calls resolve to, and the facts returned
// are the last recorded results (NewLibraryPointers).
func pointers(own []*ir.Func, graphs map[string]*Graph, lib, rec *LibraryPointers) map[string]*PointerInfo {
	// One state per distinct function name with a graph; a library
	// function k's state is nOwn+k.
	type fnState struct {
		pi *PointerInfo
		// callees holds each direct call's callee state, less base, or -1;
		// a library function's list is the library's, relative to nOwn.
		callees []int
		base    int
		lib     int          // library function index, or -1
		store   *PointerInfo // the run's own storage for a library function
		args    uint8        // argument registers some caller passes a pointer in
		ret     bool         // the function returns a pointer
		// Fact-change times on the clock below; doneAt is when pi was last
		// computed, -1 before the first time.
		argsAt, retAt, doneAt int
	}
	byName := make(map[string]int, len(own))
	var names []string            // own state index -> function name
	slot := make([]int, len(own)) // own index -> state index, or -1
	blocks, insns, calls := 0, 0, 0
	for fi, f := range own {
		slot[fi] = -1
		g := graphs[f.Name]
		if g == nil {
			continue
		}
		if si, ok := byName[f.Name]; ok {
			slot[fi] = si
			continue
		}
		byName[f.Name] = len(names)
		slot[fi] = len(names)
		names = append(names, f.Name)
		blocks += g.N()
		for _, b := range g.Blocks {
			insns += len(b.Insns)
			for i := range b.Insns {
				if b.Insns[i].Op == ir.OpBsr {
					calls++
				}
			}
		}
	}
	nOwn, nLib := len(names), 0
	if lib != nil {
		nLib = len(lib.graphs)
	}
	// Every own function's results are carved out of shared slabs.
	states := make([]fnState, nOwn+nLib)
	pis := make([]PointerInfo, nOwn)
	rows := make([][]uint8, blocks)
	marks := make([]uint8, insns)
	callArgs := make([]uint8, calls)
	callees := make([]int, 0, calls)
	for si, name := range names {
		g := graphs[name]
		pi := &pis[si]
		pi.g = g
		pi.ptrAt, rows = rows[:g.N():g.N()], rows[g.N():]
		start := len(callees)
		for b, blk := range g.Blocks {
			n := len(blk.Insns)
			pi.ptrAt[b], marks = marks[:n:n], marks[n:]
			for i := range blk.Insns {
				if in := &blk.Insns[i]; in.Op == ir.OpBsr {
					c, ok := byName[in.Sym]
					if !ok {
						c = lib.find(in.Sym, nOwn)
					}
					callees = append(callees, c)
				}
			}
		}
		n := len(callees) - start
		pi.callArgs, callArgs = callArgs[:n:n], callArgs[n:]
		states[si] = fnState{pi: pi, callees: callees[start:len(callees):len(callees)], lib: -1, doneAt: -1}
	}
	for k := 0; k < nLib; k++ {
		states[nOwn+k] = fnState{callees: lib.callees[k], base: nOwn, lib: k, doneAt: -1}
	}
	// Each round visits the own functions in program order, then the
	// library's.
	order := make([]int, 0, len(own)+nLib)
	for _, si := range slot {
		if si >= 0 {
			order = append(order, si)
		}
	}
	for si := nOwn; si < len(states); si++ {
		order = append(order, si)
	}

	clock := 0
	stale := func(st *fnState) bool {
		if st.argsAt > st.doneAt {
			return true
		}
		for _, c := range st.callees {
			if c >= 0 && states[st.base+c].retAt > st.doneAt {
				return true
			}
		}
		return false
	}
	for round := 0; round < 6; round++ {
		changed := false
		for _, si := range order {
			st := &states[si]
			if !stale(st) {
				continue
			}
			ret := func(k int) bool {
				c := st.callees[k]
				return c >= 0 && states[st.base+c].ret
			}
			if st.lib < 0 {
				st.pi.compute(st.args, ret)
			} else if st.pi = lib.lookup(st.lib, st.args, ret); st.pi == nil {
				if st.store == nil {
					st.store = newPointerInfo(lib.graphs[st.lib], len(st.callees))
				}
				st.pi = st.store
				st.pi.compute(st.args, ret)
			}
			if rec != nil {
				rec.record(si, st.args, ret, st.pi)
			}
			st.doneAt = clock
			if st.pi.returnsPtr && !st.ret {
				clock++
				st.ret, st.retAt = true, clock
				changed = true
			}
			for k, mask := range st.pi.callArgs {
				c := st.callees[k]
				if c < 0 {
					continue
				}
				callee := &states[st.base+c]
				if callee.args|mask == callee.args {
					continue
				}
				clock++
				callee.args |= mask
				callee.argsAt = clock
				changed = true
			}
		}
		if !changed && round > 0 {
			break
		}
	}
	infos := make(map[string]*PointerInfo, nOwn+nLib)
	for si, name := range names {
		infos[name] = states[si].pi
	}
	for k := 0; k < nLib; k++ {
		infos[lib.graphs[k].Fn.Name] = states[nOwn+k].pi
	}
	if rec != nil {
		rec.callees = make([][]int, nOwn)
		for si, name := range names {
			rec.callees[si] = states[si].callees
			infos[name] = rec.memo[si][len(rec.memo[si])-1].pi
		}
	}
	return infos
}
