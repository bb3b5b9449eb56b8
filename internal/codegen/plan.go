package codegen

import (
	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Plan carries profile-guided gating decisions into compilation. The
// speculative transformations the optimizing targets apply unconditionally
// (conditional-move conversion, loop unrolling) consult the plan per source
// position, so an edge-profile estimator can restrict them to code it
// predicts hot. A nil Plan — or a nil field — preserves the historical
// unconditional behaviour.
//
// Decisions are keyed by source position rather than IR identity because
// both transformations run on (or commit to) the AST before the IR of the
// optimized compilation exists; positions are the stable names that survive
// from the baseline compilation whose IR the estimator analyzed.
type Plan struct {
	// Cmov reports whether the if-statement at pos should be converted to
	// conditional moves.
	Cmov func(pos minic.Pos) bool
	// Unroll reports whether the counted for-loop at pos should be unrolled.
	Unroll func(pos minic.Pos) bool
}

func (p *Plan) cmovOK(pos minic.Pos) bool {
	return p == nil || p.Cmov == nil || p.Cmov(pos)
}

func (p *Plan) unrollFilter() func(minic.Pos) bool {
	if p == nil {
		return nil
	}
	return p.Unroll
}

// BranchOrigin ties an emitted conditional branch back to the source
// statement it implements.
type BranchOrigin struct {
	Pos minic.Pos
	// Loop marks the bottom test of a loop (the branch whose taken edge is
	// the back edge); its taken probability is the loop-continue
	// probability, which is what unrolling decisions need.
	Loop bool
}

// Meta is the side table a recorded compilation produces: for every
// conditional branch site of the generated IR, the source origin of the
// branch. Profile estimators use it to translate IR-level frequency
// estimates into the position-keyed decisions a Plan carries.
type Meta struct {
	Branch map[ir.BranchRef]BranchOrigin
}

// CompilePlanned is Compile extended with profile guidance: gating
// decisions are consulted through plan, and the returned Meta records the
// source origin of every conditional branch site so callers can build the
// next plan from this compilation's IR. A nil plan compiles exactly like
// Compile (while still recording Meta), so one entry point serves both the
// baseline "discover the branches" pass and the guided pass.
func CompilePlanned(src *minic.Program, lang ir.Language, tgt Target, plan *Plan) (*ir.Program, *Meta, error) {
	meta := &Meta{Branch: make(map[ir.BranchRef]BranchOrigin)}
	prog, err := compile(src, lang, tgt, guard.Limits{}, plan, meta)
	if err != nil {
		return nil, nil, err
	}
	return prog, meta, nil
}

// stmtPos returns the source position of a statement.
func stmtPos(s minic.Stmt) (minic.Pos, bool) {
	switch st := s.(type) {
	case *minic.BlockStmt:
		return st.Pos, true
	case *minic.EmptyStmt:
		return st.Pos, true
	case *minic.AssignStmt:
		return st.Pos, true
	case *minic.ExprStmt:
		return st.Pos, true
	case *minic.IfStmt:
		return st.Pos, true
	case *minic.WhileStmt:
		return st.Pos, true
	case *minic.DoStmt:
		return st.Pos, true
	case *minic.ForStmt:
		return st.Pos, true
	case *minic.ReturnStmt:
		return st.Pos, true
	case *minic.BreakStmt:
		return st.Pos, true
	case *minic.ContinueStmt:
		return st.Pos, true
	}
	return minic.Pos{}, false
}
