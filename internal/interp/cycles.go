package interp

import (
	"errors"
	"fmt"

	"repro/internal/ir"
)

// CostModel assigns simulated cycle costs to the IR instruction set, an
// in-order Alpha-flavored scoreboard: every executed instruction pays a
// per-class base cost, every *taken* control transfer pays a front-end
// fetch-redirect penalty, and conditional branches additionally pay a
// misprediction penalty whenever the BTFNT static predictor (backward
// taken, forward not-taken — the paper's hardware baseline) guesses the
// wrong direction. The model is what profile-guided layout optimizes
// against: making the likely successor the fall-through removes taken
// redirects, and because BTFNT predicts forward branches not-taken, it
// removes mispredicts at the same time.
type CostModel struct {
	IntALU   int64 // add/sub/logical/shift and integer compares
	IntMul   int64
	IntDiv   int64 // divq, remq
	FloatALU int64 // addt/subt/mult, conversions, fabs/fneg, float compares
	FloatDiv int64
	Load     int64
	Store    int64
	Move     int64 // mov/fmov, constants, addresses, conditional moves
	Branch   int64 // issue cost of any branch or jump
	Call     int64 // extra issue cost of bsr/ret linkage
	Runtime  int64 // rtcall intrinsic

	// TakenRedirect is the fetch-bubble cost of any taken control transfer
	// (taken conditional branch, br, jmp, call, return).
	TakenRedirect int64
	// Mispredict is the additional penalty when BTFNT predicts a
	// conditional branch's direction wrong.
	Mispredict int64
}

// DefaultCostModel returns the scoreboard used by the pgo study and the
// espbench -pgo table. The values are EV4/EV5-flavored textbook latencies;
// results are only ever compared under one model, so relative deltas —
// not the absolute constants — are what the study reports.
func DefaultCostModel() CostModel {
	return CostModel{
		IntALU:        1,
		IntMul:        8,
		IntDiv:        40,
		FloatALU:      4,
		FloatDiv:      24,
		Load:          3,
		Store:         1,
		Move:          1,
		Branch:        1,
		Call:          2,
		Runtime:       20,
		TakenRedirect: 2,
		Mispredict:    8,
	}
}

// opCost returns the base issue cost of one executed instruction.
func (cm CostModel) opCost(op ir.Op) int64 {
	switch op {
	case ir.OpMulQ:
		return cm.IntMul
	case ir.OpDivQ, ir.OpRemQ:
		return cm.IntDiv
	case ir.OpDivT:
		return cm.FloatDiv
	}
	switch op.Class() {
	case ir.ClassIntALU, ir.ClassIntCmp:
		return cm.IntALU
	case ir.ClassFloatALU, ir.ClassFloatCmp:
		return cm.FloatALU
	case ir.ClassLoad:
		return cm.Load
	case ir.ClassStore:
		return cm.Store
	case ir.ClassConst, ir.ClassMove, ir.ClassCmov:
		return cm.Move
	case ir.ClassCondBranch, ir.ClassUncondBranch, ir.ClassIndirectJump:
		return cm.Branch
	case ir.ClassCall, ir.ClassIndirectCall, ir.ClassReturn:
		return cm.Call
	case ir.ClassRuntime:
		return cm.Runtime
	}
	return cm.IntALU
}

// ErrNoEdgeProfile is returned by CycleCount when the profile was collected
// without Config.CollectEdges (per-block dynamic counts cannot be derived).
var ErrNoEdgeProfile = errors.New("interp: cycle counting needs a profile collected with CollectEdges")

// CycleCount replays a measured profile through the default cost model.
// See CycleCountModel.
func CycleCount(p *ir.Program, prof *Profile) (int64, error) {
	return CycleCountModel(p, prof, DefaultCostModel())
}

// CycleCountModel computes the simulated cycle count of one execution from
// its profile, without re-running the program: a block's dynamic count is
// its function's activation count (entry block) plus the sum of its
// measured incoming edges, and every reachable instruction of the block
// (the same blockEnd prefix the micro-op lowering charges fuel for) is
// costed per the model. Conditional-branch penalties come from the
// per-site taken counts; a branch is BTFNT-predicted taken exactly when
// its target does not lie later in layout order than the branch block.
//
// The computation is exact, and checked: the derived per-block counts must
// reproduce prof.Insns instruction-for-instruction, so a profile that does
// not match the program (or a layout pass that corrupted edge structure)
// is an error, never a silently wrong number.
func CycleCountModel(p *ir.Program, prof *Profile, cm CostModel) (int64, error) {
	if prof.Edges == nil || prof.Calls == nil {
		return 0, ErrNoEdgeProfile
	}
	// Bucket incoming-edge counts by function and destination block.
	incoming := make(map[string]map[int]int64, len(p.Funcs))
	for e, n := range prof.Edges {
		m := incoming[e.Func]
		if m == nil {
			m = make(map[int]int64)
			incoming[e.Func] = m
		}
		m[e.To] += n
	}
	var cycles, insns int64
	for _, f := range p.Funcs {
		in := incoming[f.Name]
		layout := f.Layout()
		for i, b := range f.Blocks {
			dyn := in[b.ID]
			if i == 0 {
				dyn += prof.Calls[f.Name]
			}
			if dyn == 0 {
				continue
			}
			end := blockEnd(b.Insns)
			insns += dyn * int64(end)
			for k := 0; k < end; k++ {
				op := b.Insns[k].Op
				cycles += dyn * cm.opCost(op)
				switch op.Class() {
				case ir.ClassUncondBranch, ir.ClassIndirectJump,
					ir.ClassCall, ir.ClassIndirectCall, ir.ClassReturn:
					// Unconditionally taken transfers always redirect fetch.
					cycles += dyn * cm.TakenRedirect
				}
			}
			if br := b.Branch(); br != nil {
				c := prof.Branches[ir.BranchRef{Func: f.Name, Block: b.ID}]
				if c == nil {
					return 0, fmt.Errorf("interp: no branch counts for %s:b%d", f.Name, b.ID)
				}
				if c.Executed != dyn {
					return 0, fmt.Errorf("interp: %s:b%d executed %d times but derived count is %d",
						f.Name, b.ID, c.Executed, dyn)
				}
				notTaken := c.Executed - c.Taken
				cycles += c.Taken * cm.TakenRedirect
				// A branch ends its block, so a branch to its own block
				// jumps backward.
				if backward := layout.Index(br.Target) <= i; backward {
					cycles += notTaken * cm.Mispredict // predicted taken, fell through
				} else {
					cycles += c.Taken * cm.Mispredict // predicted not-taken, taken
				}
			}
		}
	}
	if insns != prof.Insns {
		return 0, fmt.Errorf("interp: derived %d dynamic instructions, profile recorded %d (profile does not match program)",
			insns, prof.Insns)
	}
	return cycles, nil
}
