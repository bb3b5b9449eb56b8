package interp

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/ir"
)

// This file is the production execution core: each function is lowered, on
// its first call in a run, into a flat array of pre-decoded micro-ops, and
// dispatch is a single for/switch over that array. Lowering pre-resolves
// every operand (register indices, branch-count slots, branch/jump target
// pcs, callee indices, global addresses, edge-counter layout), threads
// block fallthrough so a block boundary costs nothing, fuses the two
// hottest instruction pairs (compare→conditional-branch and
// load-immediate→ALU), and charges fuel once per straight-line segment
// instead of once per instruction.
//
// The micro-op path must stay bit-identical to the original per-instruction
// interpreter, which survives as the test oracle (reference_test.go), in
// every observable way. The load-bearing arguments:
//
//   - Fuel is charged at segment granularity, where a segment is a maximal
//     straight-line run of instructions inside one block, split after each
//     call (so a callee's own charges interleave exactly as before). A
//     charge that cannot be covered (fuel < segment length) resumes the
//     activation, registers and all, at the segment's (block, insn)
//     coordinates in the function's exact twin: the same lowering with every
//     instruction its own segment, which charges fuel per instruction and so
//     runs dry at the original instruction, unless an earlier fault fires
//     first. Since fuel < length guarantees an error inside that segment,
//     and errors discard the profile entirely, intermediate fuel values are
//     unobservable on every path. A run that finishes within its budget
//     never lowers a twin.
//   - Writes to the hardwired zero registers are redirected at decode time
//     to a scratch slot (index 64), so reads of R31/F31 always see zero
//     without per-instruction resets.
//   - Instructions after a block terminator are dead in the reference loop
//     (it leaves the block immediately), so lowering neither emits nor
//     charges them.

// numURegs is the micro-op register file: the 64 architectural registers
// plus a write-only scratch slot (index 64) that absorbs redirected
// zero-register writes. The array is sized to the full uint8 range so that
// indexing it with a micro-op register field needs no bounds check.
const (
	numURegs   = 256
	scratchReg = ir.NumRegs
)

// uop is one pre-decoded micro-op. Field meaning depends on op; aux packs
// branch-count slot (high 32 bits) with target pc (low 32 bits) for
// branches, and holds resolved addresses / callee indices elsewhere.
type uop struct {
	op        uint16
	dst, a, b uint8
	_         [3]byte // explicit padding; keeps the struct at 24 bytes
	imm       int64
	aux       int64
}

// Micro-op opcodes. The dense small-integer space compiles to a jump table.
const (
	uCharge     uint16 = iota // fuel check for one segment; imm=len, aux=blk<<32|insn
	uChargeEdge               // block-entry charge that also records the CFG edge
	uLdi                      // dst = imm (int or float bits)
	uLda                      // dst = aux (pre-resolved global address)
	uMov                      // dst = a (int or float)
	uCmovEq                   // if a == 0 { dst = b }
	uCmovNe
	uFCmovEq
	uFCmovNe
	uLd // dst = mem[a+imm]
	uSt // mem[a+imm] = b

	// Integer ALU, register second operand.
	uAddQ
	uSubQ
	uMulQ
	uDivQ
	uRemQ
	uAndQ
	uOrQ
	uXorQ
	uSllQ
	uSrlQ
	uCmpEq
	uCmpLt
	uCmpLe

	// Integer ALU, immediate second operand.
	uAddQI
	uSubQI
	uMulQI
	uDivQI
	uRemQI
	uAndQI
	uOrQI
	uXorQI
	uSllQI
	uSrlQI
	uCmpEqI
	uCmpLtI
	uCmpLeI

	// Fused load-immediate→ALU: regs[b] = imm (the ldi), then
	// dst = regs[a] op imm. b is the ldi destination, written first so an
	// ALU that also reads it as its A operand sees the new value.
	uAddQIW
	uSubQIW
	uMulQIW
	uDivQIW
	uRemQIW
	uAndQIW
	uOrQIW
	uXorQIW
	uSllQIW
	uSrlQIW
	uCmpEqIW
	uCmpLtIW
	uCmpLeIW

	// Float ALU.
	uAddT
	uSubT
	uMulT
	uDivT
	uFAbs
	uFNeg
	uCvtQT
	uCvtTQ
	uCmpTEq
	uCmpTLt
	uCmpTLe

	// Conditional branches: count slot in aux high bits, taken-target pc in
	// aux low bits; not-taken falls through to the next micro-op.
	uBeq
	uBne
	uBlt
	uBle
	uBgt
	uBge
	uFbeq
	uFbne
	uFblt
	uFble
	uFbgt
	uFbge
	uBeq2
	uBne2

	// Fused compare→conditional-branch: dst = compare result (written back,
	// so later readers of the flag register still see it), then branch on it.
	uCmpEqBeq
	uCmpEqBne
	uCmpLtBeq
	uCmpLtBne
	uCmpLeBeq
	uCmpLeBne
	uCmpEqIBeq
	uCmpEqIBne
	uCmpLtIBeq
	uCmpLtIBne
	uCmpLeIBeq
	uCmpLeIBne

	uBr      // pc = aux
	uJmp     // pc = jmp[imm][regs[a]]
	uBsr     // call ufuncs[aux]
	uRet     // return V0/FV0
	uRtcall  // runtime intrinsic imm
	uError   // return errs[imm] (unresolved symbol / unimplemented opcode)
	uFellOff // return errs[imm] ("control fell off the end")

	// Superinstructions: the dynamically hottest adjacent pairs, merged by
	// the emitter's lookback pass (mergeUops) into one dispatch. Each
	// executes its two components strictly in original order, so a fault in
	// the second component observes every effect of the first, exactly as
	// the reference loop would.
	uChargeLd  // segment charge (aux packs len/blk/insn) then dst = mem[a+imm]
	uChargeLda // segment charge (aux packs len/blk/insn) then dst = imm (address)
	uLdaLd     // a = aux (address), then dst = mem[aux+imm]
	uLdLda     // dst = mem[a+imm], then reg aux&255 = aux>>8 (address)
	uLdLd      // dst = mem[a+imm], then b = mem[reg(aux&255) + aux>>8]
	uLdAddQ    // dst = mem[a+imm], then rd(aux) = ra(aux) + rb(aux)
	uLdMulQ    // dst = mem[a+imm], then rd(aux) = ra(aux) * rb(aux)
	uAddQLd    // dst = a + b, then rd(aux) = mem[ra(aux) + aux>>16]
	uMulQLd    // dst = a * b, then rd(aux) = mem[ra(aux) + aux>>16]
	uLdSt      // dst = mem[a+imm], then mem[ra(aux) + aux>>16] = rb(aux)
	uStLd      // mem[a+imm] = b, then dst = mem[reg(aux&255) + aux>>8]
	uStLda     // mem[a+imm] = b, then dst = aux (address)
	uAddQAddQ  // dst = a + b, then rd(aux) = ra(aux) + rb(aux)
	uLdAddQI   // dst = mem[a+imm], then rd(aux) = ra(aux) + aux>>16
	uAddQISt   // dst = a + imm, then mem[ra(aux) + aux>>16] = rb(aux)
	uMovMov    // dst = a, then b = reg(aux)
	uStSt      // mem[a+imm] = b, then mem[ra(aux) + aux>>16] = rb(aux)
	uLdiSt     // dst = imm, then mem[ra(aux) + aux>>16] = rb(aux)
	uStLdi     // mem[a+imm] = b, then dst = aux

	// Charge folded into the segment's first real op (aux packs len/blk/insn
	// exactly as uChargeLd).
	uChargeMov   // charge, then dst = a
	uChargeLdi   // charge, then dst = imm
	uChargeAddQ  // charge, then dst = a + b
	uChargeAddQI // charge, then dst = a + imm
	uChargeSt    // charge, then mem[a+imm] = b

	// Load fused into a following compare→branch: dst = mem[a + imm>>24],
	// then the compare (dst/a/b register indices in imm bits 16–23 / 8–15 /
	// 0–7) and the branch (count slot and target pc in aux, as all branches).
	uLdCmpEqBeq
	uLdCmpEqBne
	uLdCmpLtBeq
	uLdCmpLtBne
)

// chargePack packs a charge folded into a superinstruction into its aux
// field: segment length in bits 40+, block index in bits 20–39, instruction
// index in bits 0–19. Returns false when any of the three exceeds 20 bits
// (the charge then stays unfused).
func chargePack(n, at int64) (int64, bool) {
	blk, insn := at>>32, at&0xFFFFFFFF
	if n >= 1<<20 || blk >= 1<<20 || insn >= 1<<20 {
		return 0, false
	}
	return n<<40 | blk<<20 | insn, true
}

// uimage is one function lowered to micro-ops. An image is created empty
// and lowered on the function's first call, so a run pays only for the
// functions it enters.
type uimage struct {
	fn   *ir.Func
	idx  int       // index in the program's function list
	code []uop     // empty until lowered
	jmp  [][]int32 // indirect-jump tables, entries are code pcs
	errs []error   // pre-built errors for uError/uFellOff

	// calls counts activations; finish flushes it into Profile.Calls.
	calls int64

	// Edge counters (CollectEdges only). The successors of the block at
	// layout index b are edgeTo[succAt[b]:succAt[b+1]] (layout indices),
	// and edges[s] counts transfers along edge s.
	succAt []int32
	edgeTo []int32
	edges  []int64

	// exact marks a one-instruction-segment twin: no cross-instruction
	// fusion, fuel charged per instruction, and pcAt[b][k] the pc of block
	// b's instruction k. twin is the function's exact twin, lowered on its
	// first uncovered charge (resume).
	exact bool
	twin  *uimage
	pcAt  [][]int32
}

// buildUImages creates one empty image per function and lowers main, the
// entry point. Every other function is lowered by its first call (uBsr).
func (m *machine) buildUImages() *uimage {
	p := m.prog
	m.ufuncs = make([]*uimage, len(p.Funcs))
	m.fidx = make(map[string]int, len(p.Funcs))
	for i, f := range p.Funcs {
		m.fidx[f.Name] = i
		m.ufuncs[i] = &uimage{fn: f, idx: i}
	}
	i, ok := m.fidx["main"]
	if !ok {
		return nil
	}
	m.lowerFunc(m.ufuncs[i])
	return m.ufuncs[i]
}

// uopSize is the byte stride of the pointer-threaded dispatch walk.
const uopSize = unsafe.Sizeof(uop{})

// uadd advances a micro-op pointer by n slots.
func uadd(u *uop, n uintptr) *uop {
	return (*uop)(unsafe.Add(unsafe.Pointer(u), n*uopSize))
}

// uat resolves a code pc to a micro-op pointer relative to the stream base.
func uat(base unsafe.Pointer, pc uint32) *uop {
	return (*uop)(unsafe.Add(base, uintptr(pc)*uopSize))
}

// ufixup patches a branch/jump target once all block pcs are known: the low
// 32 bits of code[pc].aux receive blockPC[tgt].
type ufixup struct {
	pc  int32
	tgt int32
}

// rdst maps an instruction destination to a micro-op register index,
// redirecting the hardwired zero registers to the scratch slot.
func rdst(r ir.Reg) uint8 {
	if r.IsZero() {
		return scratchReg
	}
	return uint8(r)
}

// intALUOps is the 13-opcode integer ALU/compare group handled by the fused
// and immediate micro-op families; iwOf/immOf/regOf give the micro-op for
// each lowering form.
func isIntALU(op ir.Op) bool {
	switch op {
	case ir.OpAddQ, ir.OpSubQ, ir.OpMulQ, ir.OpDivQ, ir.OpRemQ,
		ir.OpAndQ, ir.OpOrQ, ir.OpXorQ, ir.OpSllQ, ir.OpSrlQ,
		ir.OpCmpEq, ir.OpCmpLt, ir.OpCmpLe:
		return true
	}
	return false
}

func aluUop(op ir.Op, base uint16) uint16 {
	var off uint16
	switch op {
	case ir.OpAddQ:
		off = 0
	case ir.OpSubQ:
		off = 1
	case ir.OpMulQ:
		off = 2
	case ir.OpDivQ:
		off = 3
	case ir.OpRemQ:
		off = 4
	case ir.OpAndQ:
		off = 5
	case ir.OpOrQ:
		off = 6
	case ir.OpXorQ:
		off = 7
	case ir.OpSllQ:
		off = 8
	case ir.OpSrlQ:
		off = 9
	case ir.OpCmpEq:
		off = 10
	case ir.OpCmpLt:
		off = 11
	case ir.OpCmpLe:
		off = 12
	default:
		panic("interp: aluUop on " + op.String())
	}
	return base + off
}

// fuseCmpBranch returns the fused micro-op for cmpOp (+imm form) followed by
// a Beq/Bne on its result, or 0 if the pair is not fusible.
func fuseCmpBranch(cmpOp ir.Op, useImm bool, brOp ir.Op) uint16 {
	var base uint16
	switch cmpOp {
	case ir.OpCmpEq:
		base = uCmpEqBeq
	case ir.OpCmpLt:
		base = uCmpLtBeq
	case ir.OpCmpLe:
		base = uCmpLeBeq
	default:
		return 0
	}
	if useImm {
		base += uCmpEqIBeq - uCmpEqBeq
	}
	if brOp == ir.OpBne {
		base++
	}
	return base
}

// blockEnd returns the index just past the last reachable instruction of the
// block: the reference loop leaves a block at its first terminator (or
// return), so anything after it is dead — never executed, never charged.
func blockEnd(insns []ir.Instr) int {
	for k := range insns {
		op := insns[k].Op
		if op.IsCondBranch() || op == ir.OpBr || op == ir.OpJmp || op == ir.OpRet {
			return k + 1
		}
	}
	return len(insns)
}

// fitsSigned reports whether v round-trips through a signed field of the
// given width (used when packing a second immediate into aux).
func fitsSigned(v int64, bits uint) bool {
	return v>>(bits-1) == 0 || v>>(bits-1) == -1
}

// mergeUops merges the previous micro-op p with the incoming n into one
// superinstruction when a rule applies. The rule set is the dynamically
// hottest adjacent pairs measured on the corpus profiling runs. Rules never
// take a charge or call as their *second* element (so block entries survive
// the lookback merge, see emit), and only the plain uCharge — never
// uChargeEdge, whose edge recording is per-dispatch — may be a *first*
// element. A branch may be a second element (its fixup is recorded against
// the pc emit returns, after the merge) but never a first one, so
// already-recorded fixup pcs stay valid.
func mergeUops(p *uop, n *uop) (uop, bool) {
	switch p.op {
	case uCharge:
		packed, ok := chargePack(p.imm, p.aux)
		if !ok {
			return uop{}, false
		}
		switch n.op {
		case uLd:
			return uop{op: uChargeLd, dst: n.dst, a: n.a, imm: n.imm, aux: packed}, true
		case uLda:
			return uop{op: uChargeLda, dst: n.dst, imm: n.aux, aux: packed}, true
		case uMov:
			return uop{op: uChargeMov, dst: n.dst, a: n.a, aux: packed}, true
		case uLdi:
			return uop{op: uChargeLdi, dst: n.dst, imm: n.imm, aux: packed}, true
		case uAddQ:
			return uop{op: uChargeAddQ, dst: n.dst, a: n.a, b: n.b, aux: packed}, true
		case uAddQI:
			return uop{op: uChargeAddQI, dst: n.dst, a: n.a, imm: n.imm, aux: packed}, true
		case uSt:
			return uop{op: uChargeSt, a: n.a, b: n.b, imm: n.imm, aux: packed}, true
		}
	case uLda:
		if n.op == uLd && n.a == p.dst {
			return uop{op: uLdaLd, dst: n.dst, a: p.dst, imm: n.imm, aux: p.aux}, true
		}
	case uLd:
		switch n.op {
		case uLda:
			if fitsSigned(n.aux, 56) {
				return uop{op: uLdLda, dst: p.dst, a: p.a, imm: p.imm,
					aux: n.aux<<8 | int64(n.dst)}, true
			}
		case uLd:
			if fitsSigned(n.imm, 56) {
				return uop{op: uLdLd, dst: p.dst, a: p.a, b: n.dst, imm: p.imm,
					aux: n.imm<<8 | int64(n.a)}, true
			}
		case uAddQ:
			return uop{op: uLdAddQ, dst: p.dst, a: p.a, imm: p.imm,
				aux: int64(n.dst) | int64(n.a)<<8 | int64(n.b)<<16}, true
		case uMulQ:
			return uop{op: uLdMulQ, dst: p.dst, a: p.a, imm: p.imm,
				aux: int64(n.dst) | int64(n.a)<<8 | int64(n.b)<<16}, true
		case uSt:
			if fitsSigned(n.imm, 48) {
				return uop{op: uLdSt, dst: p.dst, a: p.a, imm: p.imm,
					aux: n.imm<<16 | int64(n.a) | int64(n.b)<<8}, true
			}
		case uAddQI:
			if fitsSigned(n.imm, 48) {
				return uop{op: uLdAddQI, dst: p.dst, a: p.a, imm: p.imm,
					aux: n.imm<<16 | int64(n.dst) | int64(n.a)<<8}, true
			}
		case uCmpEqBeq, uCmpEqBne, uCmpLtBeq, uCmpLtBne:
			// The compare's registers move into imm's low 24 bits and the
			// load offset into the rest; aux keeps the branch packing so the
			// target-pc fixup (recorded against the pc emit returns) patches
			// the merged op like any other branch.
			if fitsSigned(p.imm, 40) {
				return uop{op: uLdCmpEqBeq + (n.op - uCmpEqBeq), dst: p.dst, a: p.a,
					imm: p.imm<<24 | int64(n.dst)<<16 | int64(n.a)<<8 | int64(n.b),
					aux: n.aux}, true
			}
		}
	case uAddQ:
		switch n.op {
		case uLd:
			if fitsSigned(n.imm, 48) {
				return uop{op: uAddQLd, dst: p.dst, a: p.a, b: p.b,
					aux: n.imm<<16 | int64(n.dst) | int64(n.a)<<8}, true
			}
		case uAddQ:
			return uop{op: uAddQAddQ, dst: p.dst, a: p.a, b: p.b,
				aux: int64(n.dst) | int64(n.a)<<8 | int64(n.b)<<16}, true
		}
	case uMulQ:
		if n.op == uLd && fitsSigned(n.imm, 48) {
			return uop{op: uMulQLd, dst: p.dst, a: p.a, b: p.b,
				aux: n.imm<<16 | int64(n.dst) | int64(n.a)<<8}, true
		}
	case uSt:
		switch n.op {
		case uLd:
			if fitsSigned(n.imm, 56) {
				return uop{op: uStLd, dst: n.dst, a: p.a, b: p.b, imm: p.imm,
					aux: n.imm<<8 | int64(n.a)}, true
			}
		case uLda:
			return uop{op: uStLda, dst: n.dst, a: p.a, b: p.b, imm: p.imm,
				aux: n.aux}, true
		case uSt:
			if fitsSigned(n.imm, 48) {
				return uop{op: uStSt, a: p.a, b: p.b, imm: p.imm,
					aux: n.imm<<16 | int64(n.a) | int64(n.b)<<8}, true
			}
		case uLdi:
			return uop{op: uStLdi, dst: n.dst, a: p.a, b: p.b, imm: p.imm,
				aux: n.imm}, true
		}
	case uAddQI:
		if n.op == uSt && fitsSigned(n.imm, 48) {
			return uop{op: uAddQISt, dst: p.dst, a: p.a, imm: p.imm,
				aux: n.imm<<16 | int64(n.a) | int64(n.b)<<8}, true
		}
	case uMov:
		if n.op == uMov {
			return uop{op: uMovMov, dst: p.dst, a: p.a, b: n.dst,
				aux: int64(n.a)}, true
		}
	case uLdi:
		if n.op == uSt && fitsSigned(n.imm, 48) {
			return uop{op: uLdiSt, dst: p.dst, imm: p.imm,
				aux: n.imm<<16 | int64(n.a) | int64(n.b)<<8}, true
		}
	}
	return uop{}, false
}

// lowerFunc lowers one function: segments, fusion, fallthrough threading,
// and a trailing fell-off-the-end guard. An exact image ends a segment after
// every instruction, which also turns off every cross-instruction fusion:
// the pair fusions need both instructions inside one segment, and mergeUops
// never takes a charge as its second element.
func (m *machine) lowerFunc(fi *uimage) {
	f := fi.fn
	edges := m.cfg.CollectEdges
	idToIdx := make(map[int]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idToIdx[b.ID] = i
	}
	if edges {
		fi.edgeSuccessors(idToIdx)
	}
	blockPC := make([]int32, len(f.Blocks))
	if fi.exact {
		fi.pcAt = make([][]int32, len(f.Blocks))
	}
	slot := m.slotBase[fi.idx] // the next branch block's count slot
	var fixups []ufixup
	var jmpBlocks [][]int32 // jump-table entries as block indices, patched below

	// emit appends one micro-op, first trying to merge it into the previous
	// one as a superinstruction. A backward merge can never swallow a block
	// entry (every non-empty block begins with a charge, and no rule takes a
	// charge as its second element) or a fixup target (branches never appear
	// as a rule's first element, and when a branch merges as the *second*
	// element its fixup is recorded against the pc returned here), so
	// already-recorded blockPC values and fixup pcs stay valid.
	emit := func(u uop) int32 {
		if n := len(fi.code); n > 0 {
			if merged, ok := mergeUops(&fi.code[n-1], &u); ok {
				fi.code[n-1] = merged
				return int32(n - 1)
			}
		}
		fi.code = append(fi.code, u)
		return int32(len(fi.code) - 1)
	}
	mkerr := func(err error) int64 {
		fi.errs = append(fi.errs, err)
		return int64(len(fi.errs) - 1)
	}

	for bi := range f.Blocks {
		b := f.Blocks[bi]
		blockPC[bi] = int32(len(fi.code))
		insns := b.Insns[:blockEnd(b.Insns)]
		bslot := int32(-1) // the block's count slot, assigned as in newMachine
		if hasSlot(b) {
			bslot = slot
			slot++
		}
		if fi.exact {
			fi.pcAt[bi] = make([]int32, len(insns))
		}
		segStart := 0
		for {
			segEnd := len(insns)
			for k := segStart; k < len(insns); k++ {
				if insns[k].Op == ir.OpBsr || fi.exact {
					segEnd = k + 1
					break
				}
			}
			segLen := int64(segEnd - segStart)
			var pc int32
			if segStart == 0 && edges {
				// Block entry: record the incoming edge even when the block
				// is empty, then charge its first segment.
				pc = emit(uop{op: uChargeEdge, imm: segLen, aux: int64(bi) << 32})
			} else if segLen > 0 {
				pc = emit(uop{op: uCharge, imm: segLen, aux: int64(bi)<<32 | int64(segStart)})
			}
			if fi.exact && segLen > 0 {
				fi.pcAt[bi][segStart] = pc
			}

			k := segStart
			for k < segEnd {
				in := &insns[k]

				// Fused compare→conditional-branch. The compare destination
				// must be a real register: a zero-register destination would
				// be reset before the branch read it.
				if k+1 < segEnd && !in.Dst.IsZero() {
					nx := &insns[k+1]
					if (nx.Op == ir.OpBeq || nx.Op == ir.OpBne) && nx.A == in.Dst {
						if fop := fuseCmpBranch(in.Op, in.UseImm, nx.Op); fop != 0 {
							pc := emit(uop{op: fop, dst: uint8(in.Dst), a: uint8(in.A),
								b: uint8(in.B), imm: in.Imm, aux: int64(bslot) << 32})
							fixups = append(fixups, ufixup{pc: pc, tgt: int32(idToIdx[nx.Target])})
							k += 2
							continue
						}
					}
					// Fused load-immediate→ALU (immediate feeds the B operand).
					if in.Op == ir.OpLdiQ {
						if isIntALU(nx.Op) && !nx.UseImm && nx.B == in.Dst {
							emit(uop{op: aluUop(nx.Op, uAddQIW), dst: rdst(nx.Dst),
								a: uint8(nx.A), b: uint8(in.Dst), imm: in.Imm})
							k += 2
							continue
						}
					}
				}

				m.lowerInsn(in, bslot, idToIdx, &fixups, &jmpBlocks, emit, mkerr)
				k++
			}
			if segEnd >= len(insns) {
				break
			}
			segStart = segEnd
		}
	}
	emit(uop{op: uFellOff,
		imm: mkerr(fmt.Errorf("interp: %s: control fell off the end", f.Name))})

	// Resolve block indices to code pcs now that every block has a pc.
	for _, fx := range fixups {
		fi.code[fx.pc].aux |= int64(uint32(blockPC[fx.tgt]))
	}
	fi.jmp = make([][]int32, len(jmpBlocks))
	for i, tbl := range jmpBlocks {
		pcs := make([]int32, len(tbl))
		for j, blk := range tbl {
			pcs[j] = blockPC[blk]
		}
		fi.jmp[i] = pcs
	}
}

// edgeSuccessors lays out the image's edge counters: one per (block,
// successor) pair the dispatch loop can take, where a block's successors
// are the targets of its first terminator plus, unless that terminator is
// an unconditional transfer or a return, the next block in layout order.
func (fi *uimage) edgeSuccessors(idToIdx map[int]int) {
	blocks := fi.fn.Blocks
	fi.succAt = make([]int32, len(blocks)+1)
	for bi, b := range blocks {
		fi.succAt[bi] = int32(len(fi.edgeTo))
		fall := true
		if end := blockEnd(b.Insns); end > 0 {
			switch t := &b.Insns[end-1]; {
			case t.Op.IsCondBranch():
				fi.edgeTo = append(fi.edgeTo, int32(idToIdx[t.Target]))
			case t.Op == ir.OpBr:
				fi.edgeTo = append(fi.edgeTo, int32(idToIdx[t.Target]))
				fall = false
			case t.Op == ir.OpJmp:
				for _, id := range t.Targets {
					fi.edgeTo = append(fi.edgeTo, int32(idToIdx[id]))
				}
				fall = false
			case t.Op == ir.OpRet:
				fall = false
			}
		}
		if fall && bi+1 < len(blocks) {
			fi.edgeTo = append(fi.edgeTo, int32(bi+1))
		}
	}
	fi.succAt[len(blocks)] = int32(len(fi.edgeTo))
	fi.edges = make([]int64, len(fi.edgeTo))
}

// lowerInsn emits the micro-op(s) for one unfused instruction; slot is the
// block's branch-count slot.
func (m *machine) lowerInsn(in *ir.Instr, slot int32, idToIdx map[int]int,
	fixups *[]ufixup, jmpBlocks *[][]int32,
	emit func(uop) int32, mkerr func(error) int64) {

	switch {
	case isIntALU(in.Op):
		if in.UseImm {
			emit(uop{op: aluUop(in.Op, uAddQI), dst: rdst(in.Dst), a: uint8(in.A), imm: in.Imm})
		} else {
			emit(uop{op: aluUop(in.Op, uAddQ), dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
		}
	case in.Op == ir.OpLdiQ || in.Op == ir.OpLdiT:
		emit(uop{op: uLdi, dst: rdst(in.Dst), imm: in.Imm})
	case in.Op == ir.OpLda:
		if base, ok := m.globals[in.Sym]; ok {
			emit(uop{op: uLda, dst: rdst(in.Dst), aux: base + in.Imm})
		} else {
			emit(uop{op: uError, imm: mkerr(fmt.Errorf("interp: unknown global %q", in.Sym))})
		}
	case in.Op == ir.OpMov || in.Op == ir.OpFMov:
		emit(uop{op: uMov, dst: rdst(in.Dst), a: uint8(in.A)})
	case in.Op == ir.OpCmovEq:
		emit(uop{op: uCmovEq, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpCmovNe:
		emit(uop{op: uCmovNe, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpFCmovEq:
		emit(uop{op: uFCmovEq, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpFCmovNe:
		emit(uop{op: uFCmovNe, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpLdq || in.Op == ir.OpLdt:
		emit(uop{op: uLd, dst: rdst(in.Dst), a: uint8(in.A), imm: in.Imm})
	case in.Op == ir.OpStq || in.Op == ir.OpStt:
		emit(uop{op: uSt, a: uint8(in.A), b: uint8(in.B), imm: in.Imm})
	case in.Op == ir.OpAddT:
		emit(uop{op: uAddT, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpSubT:
		emit(uop{op: uSubT, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpMulT:
		emit(uop{op: uMulT, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpDivT:
		emit(uop{op: uDivT, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpFAbs:
		emit(uop{op: uFAbs, dst: rdst(in.Dst), a: uint8(in.A)})
	case in.Op == ir.OpFNeg:
		emit(uop{op: uFNeg, dst: rdst(in.Dst), a: uint8(in.A)})
	case in.Op == ir.OpCvtQT:
		emit(uop{op: uCvtQT, dst: rdst(in.Dst), a: uint8(in.A)})
	case in.Op == ir.OpCvtTQ:
		emit(uop{op: uCvtTQ, dst: rdst(in.Dst), a: uint8(in.A)})
	case in.Op == ir.OpCmpTEq:
		emit(uop{op: uCmpTEq, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpCmpTLt:
		emit(uop{op: uCmpTLt, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op == ir.OpCmpTLe:
		emit(uop{op: uCmpTLe, dst: rdst(in.Dst), a: uint8(in.A), b: uint8(in.B)})
	case in.Op.IsCondBranch():
		var bop uint16
		switch in.Op {
		case ir.OpBeq:
			bop = uBeq
		case ir.OpBne:
			bop = uBne
		case ir.OpBlt:
			bop = uBlt
		case ir.OpBle:
			bop = uBle
		case ir.OpBgt:
			bop = uBgt
		case ir.OpBge:
			bop = uBge
		case ir.OpFbeq:
			bop = uFbeq
		case ir.OpFbne:
			bop = uFbne
		case ir.OpFblt:
			bop = uFblt
		case ir.OpFble:
			bop = uFble
		case ir.OpFbgt:
			bop = uFbgt
		case ir.OpFbge:
			bop = uFbge
		case ir.OpBeq2:
			bop = uBeq2
		case ir.OpBne2:
			bop = uBne2
		default:
			emit(uop{op: uError, imm: mkerr(fmt.Errorf("interp: unimplemented opcode %s", in.Op))})
			return
		}
		pc := emit(uop{op: bop, a: uint8(in.A), b: uint8(in.B), aux: int64(slot) << 32})
		*fixups = append(*fixups, ufixup{pc: pc, tgt: int32(idToIdx[in.Target])})
	case in.Op == ir.OpBr:
		pc := emit(uop{op: uBr})
		*fixups = append(*fixups, ufixup{pc: pc, tgt: int32(idToIdx[in.Target])})
	case in.Op == ir.OpJmp:
		tbl := make([]int32, len(in.Targets))
		for i, id := range in.Targets {
			tbl[i] = int32(idToIdx[id])
		}
		emit(uop{op: uJmp, a: uint8(in.A), imm: int64(len(*jmpBlocks))})
		*jmpBlocks = append(*jmpBlocks, tbl)
	case in.Op == ir.OpBsr:
		if ci, ok := m.fidx[in.Sym]; ok {
			emit(uop{op: uBsr, aux: int64(ci)})
		} else {
			emit(uop{op: uError, imm: mkerr(fmt.Errorf("interp: call to unknown function %q", in.Sym))})
		}
	case in.Op == ir.OpRet:
		emit(uop{op: uRet})
	case in.Op == ir.OpRtcall:
		emit(uop{op: uRtcall, imm: in.Imm})
	default:
		emit(uop{op: uError, imm: mkerr(fmt.Errorf("interp: unimplemented opcode %s", in.Op))})
	}
}

// callU executes one function activation over the micro-op stream. A call
// (at < 0) takes its A0..A5 and FA0..FA5 arguments from the caller's
// register file in and sp from the caller; its budget checks (call depth,
// then stack) mirror the reference interpreter's exactly. A resume (at >= 0,
// see resume) continues an activation another image began: in is its whole
// register file, sp its stack pointer, and dispatch starts at pc at with no
// prologue. The depth counter is decremented only on the successful-return
// path because every error propagates straight out of Run and discards the
// machine.
func (m *machine) callU(fi *uimage, in *[numURegs]int64, sp int64, at int32) (retInt int64, retFloat int64, err error) {
	var regs [numURegs]int64
	if at < 0 {
		if m.depth++; m.depth > m.cfg.MaxCallDepth {
			return 0, 0, ErrCallDepth
		}
		for i := 0; i < 6; i++ {
			regs[int(ir.RegA0)+i] = in[int(ir.RegA0)+i]
			regs[int(ir.RegFA0)+i] = in[int(ir.RegFA0)+i]
		}
		sp -= fi.fn.FrameSize
		if sp < m.heapTop {
			return 0, 0, ErrStack
		}
		regs[ir.RegSP] = sp
		fi.calls++
		at = 0
	} else {
		regs = *in
	}

	mem := m.mem
	counts := m.counts
	trace := m.trace     // nil in production; one predictable branch per site
	prevBlk := int32(-1) // layout index of the last block entered, for edges
	fuel := m.fuel       // kept in a register; flushed to m.fuel at calls and return

	// Dispatch is pointer-threaded: u walks the code array directly and
	// branch targets are rebased from its start, so a dispatch costs neither
	// a bounds check nor index scaling. This is safe by construction: every
	// lowered stream is closed (each function ends with a returning uFellOff,
	// every fallthrough lands on the next emitted op, and every branch/jump
	// target is a blockPC inside the same stream), so u can never leave
	// fi.code.
	base := unsafe.Pointer(unsafe.SliceData(fi.code))
	u := uat(base, uint32(at))
	for {
		switch u.op {
		case uCharge:
			if fuel < u.imm {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>32), int(int32(uint32(u.aux))), &regs, sp)
			}
			fuel -= u.imm
			u = uadd(u, 1)
		case uChargeEdge:
			bi := int32(u.aux >> 32)
			if prevBlk >= 0 {
				// Every block entry reached from prevBlk is one of its
				// successors (edgeSuccessors), so the scan stops in range.
				s := fi.succAt[prevBlk]
				for fi.edgeTo[s] != bi {
					s++
				}
				fi.edges[s]++
			}
			prevBlk = bi
			if fuel < u.imm {
				m.fuel = fuel
				return m.resume(fi, int(bi), 0, &regs, sp)
			}
			fuel -= u.imm
			u = uadd(u, 1)
		case uLdi:
			regs[u.dst] = u.imm
			u = uadd(u, 1)
		case uLda:
			regs[u.dst] = u.aux
			u = uadd(u, 1)
		case uMov:
			regs[u.dst] = regs[u.a]
			u = uadd(u, 1)
		case uCmovEq:
			if regs[u.a] == 0 {
				regs[u.dst] = regs[u.b]
			}
			u = uadd(u, 1)
		case uCmovNe:
			if regs[u.a] != 0 {
				regs[u.dst] = regs[u.b]
			}
			u = uadd(u, 1)
		case uFCmovEq:
			if math.Float64frombits(uint64(regs[u.a])) == 0 {
				regs[u.dst] = regs[u.b]
			}
			u = uadd(u, 1)
		case uFCmovNe:
			if math.Float64frombits(uint64(regs[u.a])) != 0 {
				regs[u.dst] = regs[u.b]
			}
			u = uadd(u, 1)
		case uLd:
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			u = uadd(u, 1)
		case uSt:
			addr := regs[u.a] + u.imm
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[u.b]
			m.dirty(addr)
			u = uadd(u, 1)

		case uAddQ:
			regs[u.dst] = regs[u.a] + regs[u.b]
			u = uadd(u, 1)
		case uSubQ:
			regs[u.dst] = regs[u.a] - regs[u.b]
			u = uadd(u, 1)
		case uMulQ:
			regs[u.dst] = regs[u.a] * regs[u.b]
			u = uadd(u, 1)
		case uDivQ:
			d := regs[u.b]
			if d == 0 {
				return 0, 0, ErrDivZero
			}
			regs[u.dst] = regs[u.a] / d
			u = uadd(u, 1)
		case uRemQ:
			d := regs[u.b]
			if d == 0 {
				return 0, 0, ErrDivZero
			}
			regs[u.dst] = regs[u.a] % d
			u = uadd(u, 1)
		case uAndQ:
			regs[u.dst] = regs[u.a] & regs[u.b]
			u = uadd(u, 1)
		case uOrQ:
			regs[u.dst] = regs[u.a] | regs[u.b]
			u = uadd(u, 1)
		case uXorQ:
			regs[u.dst] = regs[u.a] ^ regs[u.b]
			u = uadd(u, 1)
		case uSllQ:
			regs[u.dst] = regs[u.a] << (uint64(regs[u.b]) & 63)
			u = uadd(u, 1)
		case uSrlQ:
			regs[u.dst] = int64(uint64(regs[u.a]) >> (uint64(regs[u.b]) & 63))
			u = uadd(u, 1)
		case uCmpEq:
			var v int64
			if regs[u.a] == regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)
		case uCmpLt:
			var v int64
			if regs[u.a] < regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)
		case uCmpLe:
			var v int64
			if regs[u.a] <= regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)

		case uAddQI:
			regs[u.dst] = regs[u.a] + u.imm
			u = uadd(u, 1)
		case uSubQI:
			regs[u.dst] = regs[u.a] - u.imm
			u = uadd(u, 1)
		case uMulQI:
			regs[u.dst] = regs[u.a] * u.imm
			u = uadd(u, 1)
		case uDivQI:
			if u.imm == 0 {
				return 0, 0, ErrDivZero
			}
			regs[u.dst] = regs[u.a] / u.imm
			u = uadd(u, 1)
		case uRemQI:
			if u.imm == 0 {
				return 0, 0, ErrDivZero
			}
			regs[u.dst] = regs[u.a] % u.imm
			u = uadd(u, 1)
		case uAndQI:
			regs[u.dst] = regs[u.a] & u.imm
			u = uadd(u, 1)
		case uOrQI:
			regs[u.dst] = regs[u.a] | u.imm
			u = uadd(u, 1)
		case uXorQI:
			regs[u.dst] = regs[u.a] ^ u.imm
			u = uadd(u, 1)
		case uSllQI:
			regs[u.dst] = regs[u.a] << (uint64(u.imm) & 63)
			u = uadd(u, 1)
		case uSrlQI:
			regs[u.dst] = int64(uint64(regs[u.a]) >> (uint64(u.imm) & 63))
			u = uadd(u, 1)
		case uCmpEqI:
			var v int64
			if regs[u.a] == u.imm {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)
		case uCmpLtI:
			var v int64
			if regs[u.a] < u.imm {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)
		case uCmpLeI:
			var v int64
			if regs[u.a] <= u.imm {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)

		case uAddQIW:
			regs[u.b] = u.imm
			regs[u.dst] = regs[u.a] + u.imm
			u = uadd(u, 1)
		case uSubQIW:
			regs[u.b] = u.imm
			regs[u.dst] = regs[u.a] - u.imm
			u = uadd(u, 1)
		case uMulQIW:
			regs[u.b] = u.imm
			regs[u.dst] = regs[u.a] * u.imm
			u = uadd(u, 1)
		case uDivQIW:
			regs[u.b] = u.imm
			if u.imm == 0 {
				return 0, 0, ErrDivZero
			}
			regs[u.dst] = regs[u.a] / u.imm
			u = uadd(u, 1)
		case uRemQIW:
			regs[u.b] = u.imm
			if u.imm == 0 {
				return 0, 0, ErrDivZero
			}
			regs[u.dst] = regs[u.a] % u.imm
			u = uadd(u, 1)
		case uAndQIW:
			regs[u.b] = u.imm
			regs[u.dst] = regs[u.a] & u.imm
			u = uadd(u, 1)
		case uOrQIW:
			regs[u.b] = u.imm
			regs[u.dst] = regs[u.a] | u.imm
			u = uadd(u, 1)
		case uXorQIW:
			regs[u.b] = u.imm
			regs[u.dst] = regs[u.a] ^ u.imm
			u = uadd(u, 1)
		case uSllQIW:
			regs[u.b] = u.imm
			regs[u.dst] = regs[u.a] << (uint64(u.imm) & 63)
			u = uadd(u, 1)
		case uSrlQIW:
			regs[u.b] = u.imm
			regs[u.dst] = int64(uint64(regs[u.a]) >> (uint64(u.imm) & 63))
			u = uadd(u, 1)
		case uCmpEqIW:
			regs[u.b] = u.imm
			var v int64
			if regs[u.a] == u.imm {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)
		case uCmpLtIW:
			regs[u.b] = u.imm
			var v int64
			if regs[u.a] < u.imm {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)
		case uCmpLeIW:
			regs[u.b] = u.imm
			var v int64
			if regs[u.a] <= u.imm {
				v = 1
			}
			regs[u.dst] = v
			u = uadd(u, 1)

		case uAddT:
			regs[u.dst] = int64(math.Float64bits(
				math.Float64frombits(uint64(regs[u.a])) + math.Float64frombits(uint64(regs[u.b]))))
			u = uadd(u, 1)
		case uSubT:
			regs[u.dst] = int64(math.Float64bits(
				math.Float64frombits(uint64(regs[u.a])) - math.Float64frombits(uint64(regs[u.b]))))
			u = uadd(u, 1)
		case uMulT:
			regs[u.dst] = int64(math.Float64bits(
				math.Float64frombits(uint64(regs[u.a])) * math.Float64frombits(uint64(regs[u.b]))))
			u = uadd(u, 1)
		case uDivT:
			regs[u.dst] = int64(math.Float64bits(
				math.Float64frombits(uint64(regs[u.a])) / math.Float64frombits(uint64(regs[u.b]))))
			u = uadd(u, 1)
		case uFAbs:
			regs[u.dst] = int64(math.Float64bits(math.Abs(math.Float64frombits(uint64(regs[u.a])))))
			u = uadd(u, 1)
		case uFNeg:
			regs[u.dst] = int64(math.Float64bits(-math.Float64frombits(uint64(regs[u.a]))))
			u = uadd(u, 1)
		case uCvtQT:
			regs[u.dst] = int64(math.Float64bits(float64(regs[u.a])))
			u = uadd(u, 1)
		case uCvtTQ:
			regs[u.dst] = int64(math.Float64frombits(uint64(regs[u.a])))
			u = uadd(u, 1)
		case uCmpTEq:
			r := 0.0
			if math.Float64frombits(uint64(regs[u.a])) == math.Float64frombits(uint64(regs[u.b])) {
				r = 1.0
			}
			regs[u.dst] = int64(math.Float64bits(r))
			u = uadd(u, 1)
		case uCmpTLt:
			r := 0.0
			if math.Float64frombits(uint64(regs[u.a])) < math.Float64frombits(uint64(regs[u.b])) {
				r = 1.0
			}
			regs[u.dst] = int64(math.Float64bits(r))
			u = uadd(u, 1)
		case uCmpTLe:
			r := 0.0
			if math.Float64frombits(uint64(regs[u.a])) <= math.Float64frombits(uint64(regs[u.b])) {
				r = 1.0
			}
			regs[u.dst] = int64(math.Float64bits(r))
			u = uadd(u, 1)

		case uBeq:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uBne:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uBlt:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] < 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uBle:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] <= 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uBgt:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] > 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uBge:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] >= 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uFbeq:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if math.Float64frombits(uint64(regs[u.a])) == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uFbne:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if math.Float64frombits(uint64(regs[u.a])) != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uFblt:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if math.Float64frombits(uint64(regs[u.a])) < 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uFble:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if math.Float64frombits(uint64(regs[u.a])) <= 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uFbgt:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if math.Float64frombits(uint64(regs[u.a])) > 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uFbge:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if math.Float64frombits(uint64(regs[u.a])) >= 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uBeq2:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] == regs[u.b] {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uBne2:
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if regs[u.a] != regs[u.b] {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}

		case uCmpEqBeq:
			var v int64
			if regs[u.a] == regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpEqBne:
			var v int64
			if regs[u.a] == regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLtBeq:
			var v int64
			if regs[u.a] < regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLtBne:
			var v int64
			if regs[u.a] < regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLeBeq:
			var v int64
			if regs[u.a] <= regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLeBne:
			var v int64
			if regs[u.a] <= regs[u.b] {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpEqIBeq:
			var v int64
			if regs[u.a] == u.imm {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpEqIBne:
			var v int64
			if regs[u.a] == u.imm {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLtIBeq:
			var v int64
			if regs[u.a] < u.imm {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLtIBne:
			var v int64
			if regs[u.a] < u.imm {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLeIBeq:
			var v int64
			if regs[u.a] <= u.imm {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uCmpLeIBne:
			var v int64
			if regs[u.a] <= u.imm {
				v = 1
			}
			regs[u.dst] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}

		case uChargeLd:
			if fuel < u.aux>>40 {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>20)&0xFFFFF, int(u.aux)&0xFFFFF, &regs, sp)
			}
			fuel -= u.aux >> 40
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			u = uadd(u, 1)
		case uChargeLda:
			if fuel < u.aux>>40 {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>20)&0xFFFFF, int(u.aux)&0xFFFFF, &regs, sp)
			}
			fuel -= u.aux >> 40
			regs[u.dst] = u.imm
			u = uadd(u, 1)
		case uLdaLd:
			regs[u.a] = u.aux
			addr := u.aux + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			u = uadd(u, 1)
		case uLdLda:
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			regs[uint8(u.aux)] = u.aux >> 8
			u = uadd(u, 1)
		case uLdLd:
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			addr = regs[uint8(u.aux)] + u.aux>>8
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.b] = mem[addr]
			u = uadd(u, 1)
		case uLdAddQ:
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			x := u.aux
			regs[uint8(x)] = regs[uint8(x>>8)] + regs[uint8(x>>16)]
			u = uadd(u, 1)
		case uLdMulQ:
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			x := u.aux
			regs[uint8(x)] = regs[uint8(x>>8)] * regs[uint8(x>>16)]
			u = uadd(u, 1)
		case uAddQLd:
			regs[u.dst] = regs[u.a] + regs[u.b]
			x := u.aux
			addr := regs[uint8(x>>8)] + x>>16
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[uint8(x)] = mem[addr]
			u = uadd(u, 1)
		case uMulQLd:
			regs[u.dst] = regs[u.a] * regs[u.b]
			x := u.aux
			addr := regs[uint8(x>>8)] + x>>16
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[uint8(x)] = mem[addr]
			u = uadd(u, 1)
		case uLdSt:
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			x := u.aux
			addr = regs[uint8(x)] + x>>16
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[uint8(x>>8)]
			m.dirty(addr)
			u = uadd(u, 1)
		case uStLd:
			addr := regs[u.a] + u.imm
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[u.b]
			m.dirty(addr)
			addr = regs[uint8(u.aux)] + u.aux>>8
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			u = uadd(u, 1)
		case uStLda:
			addr := regs[u.a] + u.imm
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[u.b]
			m.dirty(addr)
			regs[u.dst] = u.aux
			u = uadd(u, 1)
		case uAddQAddQ:
			regs[u.dst] = regs[u.a] + regs[u.b]
			x := u.aux
			regs[uint8(x)] = regs[uint8(x>>8)] + regs[uint8(x>>16)]
			u = uadd(u, 1)
		case uLdAddQI:
			addr := regs[u.a] + u.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			x := u.aux
			regs[uint8(x)] = regs[uint8(x>>8)] + x>>16
			u = uadd(u, 1)
		case uAddQISt:
			regs[u.dst] = regs[u.a] + u.imm
			x := u.aux
			addr := regs[uint8(x)] + x>>16
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[uint8(x>>8)]
			m.dirty(addr)
			u = uadd(u, 1)
		case uMovMov:
			regs[u.dst] = regs[u.a]
			regs[u.b] = regs[uint8(u.aux)]
			u = uadd(u, 1)
		case uStSt:
			addr := regs[u.a] + u.imm
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[u.b]
			m.dirty(addr)
			x := u.aux
			addr = regs[uint8(x)] + x>>16
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[uint8(x>>8)]
			m.dirty(addr)
			u = uadd(u, 1)
		case uLdiSt:
			regs[u.dst] = u.imm
			x := u.aux
			addr := regs[uint8(x)] + x>>16
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[uint8(x>>8)]
			m.dirty(addr)
			u = uadd(u, 1)
		case uStLdi:
			addr := regs[u.a] + u.imm
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[u.b]
			m.dirty(addr)
			regs[u.dst] = u.aux
			u = uadd(u, 1)

		case uChargeMov:
			if fuel < u.aux>>40 {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>20)&0xFFFFF, int(u.aux)&0xFFFFF, &regs, sp)
			}
			fuel -= u.aux >> 40
			regs[u.dst] = regs[u.a]
			u = uadd(u, 1)
		case uChargeLdi:
			if fuel < u.aux>>40 {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>20)&0xFFFFF, int(u.aux)&0xFFFFF, &regs, sp)
			}
			fuel -= u.aux >> 40
			regs[u.dst] = u.imm
			u = uadd(u, 1)
		case uChargeAddQ:
			if fuel < u.aux>>40 {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>20)&0xFFFFF, int(u.aux)&0xFFFFF, &regs, sp)
			}
			fuel -= u.aux >> 40
			regs[u.dst] = regs[u.a] + regs[u.b]
			u = uadd(u, 1)
		case uChargeAddQI:
			if fuel < u.aux>>40 {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>20)&0xFFFFF, int(u.aux)&0xFFFFF, &regs, sp)
			}
			fuel -= u.aux >> 40
			regs[u.dst] = regs[u.a] + u.imm
			u = uadd(u, 1)
		case uChargeSt:
			if fuel < u.aux>>40 {
				m.fuel = fuel
				return m.resume(fi, int(u.aux>>20)&0xFFFFF, int(u.aux)&0xFFFFF, &regs, sp)
			}
			fuel -= u.aux >> 40
			addr := regs[u.a] + u.imm
			if uint64(addr-1) >= uint64(len(mem))-1 {
				return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			mem[addr] = regs[u.b]
			m.dirty(addr)
			u = uadd(u, 1)

		case uLdCmpEqBeq:
			addr := regs[u.a] + u.imm>>24
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			var v int64
			if regs[uint8(u.imm>>8)] == regs[uint8(u.imm)] {
				v = 1
			}
			regs[uint8(u.imm>>16)] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uLdCmpEqBne:
			addr := regs[u.a] + u.imm>>24
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			var v int64
			if regs[uint8(u.imm>>8)] == regs[uint8(u.imm)] {
				v = 1
			}
			regs[uint8(u.imm>>16)] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uLdCmpLtBeq:
			addr := regs[u.a] + u.imm>>24
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			var v int64
			if regs[uint8(u.imm>>8)] < regs[uint8(u.imm)] {
				v = 1
			}
			regs[uint8(u.imm>>16)] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v == 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}
		case uLdCmpLtBne:
			addr := regs[u.a] + u.imm>>24
			if uint64(addr) >= uint64(len(mem)) {
				return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fi.fn.Name)
			}
			regs[u.dst] = mem[addr]
			var v int64
			if regs[uint8(u.imm>>8)] < regs[uint8(u.imm)] {
				v = 1
			}
			regs[uint8(u.imm>>16)] = v
			bc := &counts[int32(u.aux>>32)]
			bc.Executed++
			if v != 0 {
				bc.Taken++
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), true)
				}
				u = uat(base, uint32(u.aux))
			} else {
				if trace != nil {
					trace.TraceBranch(int32(u.aux>>32), false)
				}
				u = uadd(u, 1)
			}

		case uBr:
			u = uat(base, uint32(u.aux))
		case uJmp:
			tgts := fi.jmp[u.imm]
			idx := regs[u.a]
			if idx < 0 || idx >= int64(len(tgts)) {
				return 0, 0, ErrBadJump
			}
			u = uat(base, uint32(tgts[idx]))
		case uBsr:
			callee := m.ufuncs[u.aux]
			if len(callee.code) == 0 {
				m.lowerFunc(callee)
			}
			m.fuel = fuel
			ri, rf, cerr := m.callU(callee, &regs, sp, -1)
			if cerr != nil {
				return 0, 0, cerr
			}
			fuel = m.fuel
			regs[ir.RegV0] = ri
			regs[ir.RegFV0] = rf
			u = uadd(u, 1)
		case uRet:
			m.depth--
			m.fuel = fuel
			return regs[ir.RegV0], regs[ir.RegFV0], nil
		case uRtcall:
			if rerr := m.runtime(u.imm, regs[:ir.NumRegs]); rerr != nil {
				return 0, 0, rerr
			}
			u = uadd(u, 1)
		case uError, uFellOff:
			return 0, 0, fi.errs[u.imm]
		default:
			return 0, 0, fmt.Errorf("interp: bad micro-op %d", u.op)
		}
	}
}

// resume finishes the activation on a fuel charge that fi could not cover,
// at block blk's instruction insn: it lowers fi's exact twin if this is the
// function's first fuel-out and continues there with the same registers.
// In the twin every charge covers one instruction, so an uncovered charge
// there is the reference interpreter's exact ErrFuel point.
func (m *machine) resume(fi *uimage, blk, insn int, regs *[numURegs]int64, sp int64) (int64, int64, error) {
	if fi.exact {
		return 0, 0, ErrFuel
	}
	if fi.twin == nil {
		fi.twin = &uimage{fn: fi.fn, idx: fi.idx, exact: true}
		m.lowerFunc(fi.twin)
	}
	return m.callU(fi.twin, regs, sp, fi.twin.pcAt[blk][insn])
}
