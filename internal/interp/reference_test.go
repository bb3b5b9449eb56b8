package interp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ir"
)

// This file is the reference interpreter: the original per-instruction
// dispatch loop, kept bit-for-bit as the oracle the micro-op path is
// differentially tested against (profiles, edges, calls, outputs, trace
// streams and error points). Nothing outside the tests runs it.

// refMachine is one reference execution: the shared machine state plus the
// reference images.
type refMachine struct {
	*machine
	funcs []*funcImage // by function index
}

// RunReference executes the program on the reference interpreter.
func RunReference(p *ir.Program, cfg Config) (*Profile, error) {
	return RunReferenceTrace(p, cfg, nil)
}

// RunReferenceTrace is RunReference with a branch-outcome stream, for
// differential tests against RunTrace.
func RunReferenceTrace(p *ir.Program, cfg Config, sink TraceSink) (*Profile, error) {
	m := &refMachine{machine: newMachine(p, cfg)}
	defer m.release()
	m.beginTrace(sink)
	m.buildImages()
	mainIdx := slices.IndexFunc(p.Funcs, func(f *ir.Func) bool { return f.Name == "main" })
	if mainIdx < 0 {
		return nil, ErrNoMain
	}
	var args [12]int64
	ret, _, err := m.call(m.funcs[mainIdx], args, m.cfg.MemWords)
	if err != nil {
		return nil, fmt.Errorf("interp: %s: %w", p.Name, err)
	}
	return m.finish(ret), nil
}

// funcImage is a function pre-resolved for reference dispatch: every
// symbolic operand (block IDs, global symbols, callee names) is rewritten to
// a dense index so the interpreter loop never consults a map.
type funcImage struct {
	fn     *ir.Func
	blocks []blockImage
}

// blockImage carries the per-instruction resolved operands of one block.
// aux is indexed by pc and its meaning depends on the opcode there:
//
//	conditional branch → branch-count slot (high 32 bits) | taken-target
//	                     block index (low 32 bits)
//	OpBr               → target block index
//	OpJmp              → index into jmp, the resolved target table
//	OpBsr              → callee index into refMachine.funcs, or unknownSym
//	OpLda              → global base + immediate, or unknownSym
//
// aux stays nil for blocks with none of these opcodes.
type blockImage struct {
	aux []int64
	jmp [][]int32
}

// unknownSym marks an OpLda/OpBsr operand that did not resolve at image-build
// time; executing it reports the same error the unresolved lookup used to.
const unknownSym = math.MinInt64

// buildImages pre-resolves every function for reference dispatch. Symbol
// resolution errors are deferred to execution via unknownSym sentinels so
// unreachable bad code stays harmless.
func (m *refMachine) buildImages() {
	p := m.prog
	m.funcs = make([]*funcImage, 0, len(p.Funcs))
	fidx := make(map[string]int, len(p.Funcs))
	// Resolve branch sites by name, independently of the micro-op path's
	// per-function slot bases. A site newMachine did not register (a
	// conditional branch after its block's first terminator, in an
	// unverified program) gets a slot of its own.
	slotOf := make(map[ir.BranchRef]int32, len(m.refs))
	for i, ref := range m.refs {
		slotOf[ref] = int32(i)
	}
	slot := func(ref ir.BranchRef) int32 {
		s, ok := slotOf[ref]
		if !ok {
			s = int32(len(m.counts))
			slotOf[ref] = s
			m.refs = append(m.refs, ref)
			m.counts = append(m.counts, BranchCount{})
		}
		return s
	}
	for _, f := range p.Funcs {
		fidx[f.Name] = len(m.funcs)
		m.funcs = append(m.funcs, &funcImage{fn: f, blocks: make([]blockImage, len(f.Blocks))})
	}
	for _, fi := range m.funcs {
		f := fi.fn
		idToIdx := make(map[int]int, len(f.Blocks))
		for i, b := range f.Blocks {
			idToIdx[b.ID] = i
		}
		for bi := range f.Blocks {
			b := f.Blocks[bi]
			blk := &fi.blocks[bi]
			ensure := func() []int64 {
				if blk.aux == nil {
					blk.aux = make([]int64, len(b.Insns))
				}
				return blk.aux
			}
			for pc := range b.Insns {
				in := &b.Insns[pc]
				switch {
				case in.Op.IsCondBranch():
					s := slot(ir.BranchRef{Func: f.Name, Block: b.ID})
					ensure()[pc] = int64(s)<<32 |
						int64(uint32(int32(idToIdx[in.Target])))
				case in.Op == ir.OpBr:
					ensure()[pc] = int64(idToIdx[in.Target])
				case in.Op == ir.OpJmp:
					tg := make([]int32, len(in.Targets))
					for i, id := range in.Targets {
						tg[i] = int32(idToIdx[id])
					}
					ensure()[pc] = int64(len(blk.jmp))
					blk.jmp = append(blk.jmp, tg)
				case in.Op == ir.OpBsr:
					if i, ok := fidx[in.Sym]; ok {
						ensure()[pc] = int64(i)
					} else {
						ensure()[pc] = unknownSym
					}
				case in.Op == ir.OpLda:
					if base, ok := m.globals[in.Sym]; ok {
						ensure()[pc] = base + in.Imm
					} else {
						ensure()[pc] = unknownSym
					}
				}
			}
		}
	}
}

// call executes one function activation on the reference path. args holds
// the incoming A0..A5 and FA0..FA5 register values; sp is the caller's stack
// pointer.
func (m *refMachine) call(fi *funcImage, args [12]int64, sp int64) (retInt int64, retFloat int64, err error) {
	if m.depth++; m.depth > m.cfg.MaxCallDepth {
		return 0, 0, ErrCallDepth
	}
	defer func() { m.depth-- }()

	var regs [ir.NumRegs]int64
	for i := 0; i < 6; i++ {
		regs[int(ir.RegA0)+i] = args[i]
		regs[int(ir.RegFA0)+i] = args[6+i]
	}
	sp -= fi.fn.FrameSize
	if sp < m.heapTop {
		return 0, 0, ErrStack
	}
	regs[ir.RegSP] = sp
	m.prof.Calls[fi.fn.Name]++
	return m.refLoop(fi, &regs, sp)
}

// refLoop runs the reference dispatch loop from the function's entry to its
// return.
func (m *refMachine) refLoop(fi *funcImage, regs *[ir.NumRegs]int64, sp int64) (retInt int64, retFloat int64, err error) {
	fn := fi.fn
	blockIdx := 0
	for {
		b := fn.Blocks[blockIdx]
		bim := &fi.blocks[blockIdx]
		nextIdx := blockIdx + 1 // default: fall through in layout order
		fell := true
		for pc := range b.Insns {
			in := &b.Insns[pc]
			if m.fuel--; m.fuel < 0 {
				return 0, 0, ErrFuel
			}
			// Reads of the zero registers always see zero.
			regs[ir.RegZero] = 0
			regs[ir.RegFZero] = 0
			switch in.Op {
			case ir.OpAddQ, ir.OpSubQ, ir.OpMulQ, ir.OpDivQ, ir.OpRemQ,
				ir.OpAndQ, ir.OpOrQ, ir.OpXorQ, ir.OpSllQ, ir.OpSrlQ,
				ir.OpCmpEq, ir.OpCmpLt, ir.OpCmpLe:
				bval := regs[in.B]
				if in.UseImm {
					bval = in.Imm
				}
				v, derr := intALU(in.Op, regs[in.A], bval)
				if derr != nil {
					return 0, 0, derr
				}
				regs[in.Dst] = v
			case ir.OpLdiQ:
				regs[in.Dst] = in.Imm
			case ir.OpLda:
				addr := bim.aux[pc]
				if addr == unknownSym {
					return 0, 0, fmt.Errorf("interp: unknown global %q", in.Sym)
				}
				regs[in.Dst] = addr
			case ir.OpMov, ir.OpFMov:
				regs[in.Dst] = regs[in.A]
			case ir.OpCmovEq:
				if regs[in.A] == 0 {
					regs[in.Dst] = regs[in.B]
				}
			case ir.OpCmovNe:
				if regs[in.A] != 0 {
					regs[in.Dst] = regs[in.B]
				}
			case ir.OpFCmovEq:
				if math.Float64frombits(uint64(regs[in.A])) == 0 {
					regs[in.Dst] = regs[in.B]
				}
			case ir.OpFCmovNe:
				if math.Float64frombits(uint64(regs[in.A])) != 0 {
					regs[in.Dst] = regs[in.B]
				}
			case ir.OpLdq, ir.OpLdt:
				addr := regs[in.A] + in.Imm
				if addr < 0 || addr >= int64(len(m.mem)) {
					return 0, 0, fmt.Errorf("%w: load at %d in %s", ErrMemBounds, addr, fn.Name)
				}
				regs[in.Dst] = m.mem[addr]
			case ir.OpStq, ir.OpStt:
				addr := regs[in.A] + in.Imm
				if addr <= 0 || addr >= int64(len(m.mem)) {
					return 0, 0, fmt.Errorf("%w: store at %d in %s", ErrMemBounds, addr, fn.Name)
				}
				m.mem[addr] = regs[in.B]
				m.dirty(addr)
			case ir.OpAddT, ir.OpSubT, ir.OpMulT, ir.OpDivT:
				a := math.Float64frombits(uint64(regs[in.A]))
				bv := math.Float64frombits(uint64(regs[in.B]))
				var r float64
				switch in.Op {
				case ir.OpAddT:
					r = a + bv
				case ir.OpSubT:
					r = a - bv
				case ir.OpMulT:
					r = a * bv
				case ir.OpDivT:
					r = a / bv
				}
				regs[in.Dst] = int64(math.Float64bits(r))
			case ir.OpFAbs:
				a := math.Float64frombits(uint64(regs[in.A]))
				regs[in.Dst] = int64(math.Float64bits(math.Abs(a)))
			case ir.OpFNeg:
				a := math.Float64frombits(uint64(regs[in.A]))
				regs[in.Dst] = int64(math.Float64bits(-a))
			case ir.OpLdiT:
				regs[in.Dst] = in.Imm
			case ir.OpCvtQT:
				regs[in.Dst] = int64(math.Float64bits(float64(regs[in.A])))
			case ir.OpCvtTQ:
				regs[in.Dst] = int64(math.Float64frombits(uint64(regs[in.A])))
			case ir.OpCmpTEq, ir.OpCmpTLt, ir.OpCmpTLe:
				a := math.Float64frombits(uint64(regs[in.A]))
				bv := math.Float64frombits(uint64(regs[in.B]))
				var cond bool
				switch in.Op {
				case ir.OpCmpTEq:
					cond = a == bv
				case ir.OpCmpTLt:
					cond = a < bv
				case ir.OpCmpTLe:
					cond = a <= bv
				}
				r := 0.0
				if cond {
					r = 1.0
				}
				regs[in.Dst] = int64(math.Float64bits(r))
			case ir.OpBeq, ir.OpBne, ir.OpBlt, ir.OpBle, ir.OpBgt, ir.OpBge,
				ir.OpFbeq, ir.OpFbne, ir.OpFblt, ir.OpFble, ir.OpFbgt, ir.OpFbge,
				ir.OpBeq2, ir.OpBne2:
				a := bim.aux[pc]
				bc := &m.counts[int32(a>>32)]
				bc.Executed++
				taken := branchTaken(in, regs[:])
				if taken {
					bc.Taken++
					nextIdx = int(int32(uint32(a)))
				}
				if m.trace != nil {
					m.trace.TraceBranch(int32(a>>32), taken)
				}
				fell = false
				goto endBlock
			case ir.OpBr:
				nextIdx = int(bim.aux[pc])
				fell = false
				goto endBlock
			case ir.OpJmp:
				tgts := bim.jmp[bim.aux[pc]]
				idx := regs[in.A]
				if idx < 0 || idx >= int64(len(tgts)) {
					return 0, 0, ErrBadJump
				}
				nextIdx = int(tgts[idx])
				fell = false
				goto endBlock
			case ir.OpBsr:
				ci := bim.aux[pc]
				if ci == unknownSym {
					return 0, 0, fmt.Errorf("interp: call to unknown function %q", in.Sym)
				}
				callee := m.funcs[ci]
				var cargs [12]int64
				for i := 0; i < 6; i++ {
					cargs[i] = regs[int(ir.RegA0)+i]
					cargs[6+i] = regs[int(ir.RegFA0)+i]
				}
				ri, rf, cerr := m.call(callee, cargs, sp)
				if cerr != nil {
					return 0, 0, cerr
				}
				regs[ir.RegV0] = ri
				regs[ir.RegFV0] = rf
			case ir.OpRet:
				return regs[ir.RegV0], regs[ir.RegFV0], nil
			case ir.OpRtcall:
				if rerr := m.runtime(in.Imm, regs[:]); rerr != nil {
					return 0, 0, rerr
				}
			default:
				return 0, 0, fmt.Errorf("interp: unimplemented opcode %s", in.Op)
			}
		}
	endBlock:
		if fell && blockIdx+1 >= len(fn.Blocks) {
			return 0, 0, fmt.Errorf("interp: %s: control fell off the end", fn.Name)
		}
		if m.prof.Edges != nil {
			from := fn.Blocks[blockIdx].ID
			to := fn.Blocks[nextIdx].ID
			m.prof.Edges[EdgeRef{Func: fn.Name, From: from, To: to}]++
		}
		blockIdx = nextIdx
	}
}

// branchTaken evaluates a conditional branch against the register file.
func branchTaken(in *ir.Instr, regs []int64) bool {
	switch in.Op {
	case ir.OpBeq:
		return regs[in.A] == 0
	case ir.OpBne:
		return regs[in.A] != 0
	case ir.OpBlt:
		return regs[in.A] < 0
	case ir.OpBle:
		return regs[in.A] <= 0
	case ir.OpBgt:
		return regs[in.A] > 0
	case ir.OpBge:
		return regs[in.A] >= 0
	case ir.OpBeq2:
		return regs[in.A] == regs[in.B]
	case ir.OpBne2:
		return regs[in.A] != regs[in.B]
	case ir.OpFbeq, ir.OpFbne, ir.OpFblt, ir.OpFble, ir.OpFbgt, ir.OpFbge:
		a := math.Float64frombits(uint64(regs[in.A]))
		switch in.Op {
		case ir.OpFbeq:
			return a == 0
		case ir.OpFbne:
			return a != 0
		case ir.OpFblt:
			return a < 0
		case ir.OpFble:
			return a <= 0
		case ir.OpFbgt:
			return a > 0
		case ir.OpFbge:
			return a >= 0
		}
	}
	panic("interp: branchTaken on non-branch " + in.Op.String())
}

func intALU(op ir.Op, a, b int64) (int64, error) {
	switch op {
	case ir.OpAddQ:
		return a + b, nil
	case ir.OpSubQ:
		return a - b, nil
	case ir.OpMulQ:
		return a * b, nil
	case ir.OpDivQ:
		if b == 0 {
			return 0, ErrDivZero
		}
		return a / b, nil
	case ir.OpRemQ:
		if b == 0 {
			return 0, ErrDivZero
		}
		return a % b, nil
	case ir.OpAndQ:
		return a & b, nil
	case ir.OpOrQ:
		return a | b, nil
	case ir.OpXorQ:
		return a ^ b, nil
	case ir.OpSllQ:
		return a << (uint64(b) & 63), nil
	case ir.OpSrlQ:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	case ir.OpCmpEq:
		if a == b {
			return 1, nil
		}
		return 0, nil
	case ir.OpCmpLt:
		if a < b {
			return 1, nil
		}
		return 0, nil
	case ir.OpCmpLe:
		if a <= b {
			return 1, nil
		}
		return 0, nil
	}
	panic("interp: intALU on " + op.String())
}
