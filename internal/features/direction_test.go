package features_test

import (
	"testing"

	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/hwsim"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestSelfLoopIsBackward pins the one branch-direction rule on a branch to
// its own block: the branch ends the block and the target is the block's
// start, so the branch is backward. Feature 2, both BTFNT predictors and the
// cycle model must all agree.
func TestSelfLoopIsBackward(t *testing.T) {
	// main: R1 = 3; loop: R1 = R1 - 1; bne R1, loop; V0 = 0; ret.
	fb := ir.NewFuncBuilder("main", ir.LangC)
	fb.LoadInt(ir.R(1), 3)
	loop := fb.NewBlock()
	exit := fb.NewBlock()
	fb.SetBlock(loop)
	fb.OpImm(ir.OpSubQ, ir.R(1), ir.R(1), 1)
	fb.Branch(ir.OpBne, ir.R(1), loop)
	fb.SetBlock(exit)
	fb.LoadInt(ir.RegV0, 0)
	fb.Ret()
	prog := &ir.Program{Name: "selfloop", Funcs: []*ir.Func{fb.Func()}}
	if err := prog.Verify(); err != nil {
		t.Fatal(err)
	}

	ps := features.Collect(prog)
	if len(ps.Sites) != 1 {
		t.Fatalf("got %d sites, want the one self-loop branch", len(ps.Sites))
	}
	s := ps.Sites[0]
	if s.TakenIdx != s.BlockIdx || !s.Backward() {
		t.Fatalf("site taken=%d block=%d Backward=%v, want a backward self-loop", s.TakenIdx, s.BlockIdx, s.Backward())
	}
	v, ev := &features.ExtractAll(ps)[0], &heuristics.EvidenceOf(ps)[0]
	if got := v.Values[features.FBrDirection]; got != "B" {
		t.Errorf("feature 2 = %q, want B", got)
	}
	if p, ok := (heuristics.BTFNT{}).Predict(v, ev); !ok || p != heuristics.Taken {
		t.Errorf("heuristics.BTFNT = %v, %v; want taken", p, ok)
	}
	if p := (hwsim.BTFNT{}).Prob(v, ev); p != 1 {
		t.Errorf("hwsim.BTFNT probability = %v, want 1", p)
	}

	// The branch runs three times: taken twice, then falls through once.
	// Predicted taken, it mispredicts only on the fall-through.
	prof, err := interp.Run(prog, interp.Config{CollectEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	c := prof.Branches[s.Ref]
	if c == nil || c.Executed != 3 || c.Taken != 2 {
		t.Fatalf("branch counts %+v, want 3 executed, 2 taken", c)
	}
	cm := interp.DefaultCostModel()
	cm.Mispredict = 0
	base, err := interp.CycleCountModel(prog, prof, cm)
	if err != nil {
		t.Fatal(err)
	}
	cm.Mispredict = 1000
	charged, err := interp.CycleCountModel(prog, prof, cm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := charged-base, (c.Executed-c.Taken)*1000; got != want {
		t.Errorf("mispredict cycles = %d, want the not-taken count times the penalty (%d)", got, want)
	}
}
