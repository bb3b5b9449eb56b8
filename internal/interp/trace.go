package interp

import (
	"fmt"

	"repro/internal/ir"
)

// TraceSink receives the dynamic conditional-branch outcome stream of one
// execution, in exact program order. The stream is opt-in (RunTrace); the
// plain Run entry point pays nothing for it beyond one predictable nil check
// per executed branch.
//
// Contract (the streaming analogue of CycleCountModel's Executed==dyn
// check): over a successful execution the sink observes exactly
// Profile.Branches[refs[site]].Executed events per site, of which exactly
// .Taken carry taken=true. The stream is event-for-event the one the
// reference interpreter (the test oracle in reference_test.go) emits, also
// up to the error point of a run that finishes an out-of-fuel activation on
// its function's exact twin. TraceAggregate.Check verifies the counts.
type TraceSink interface {
	// BeginTrace is called once, before any event, with the dense site
	// table: event site indices refer to refs[site]. The table covers every
	// static conditional branch in the program (sites that never execute
	// included) in deterministic function/layout order, and is owned by the
	// interpreter — sinks must not mutate it.
	BeginTrace(refs []ir.BranchRef)
	// TraceBranch reports one executed conditional branch: site indexes the
	// BeginTrace table, taken is the resolved direction. Called
	// synchronously from the dispatch loop; implementations should be cheap
	// and must not call back into the interpreter.
	TraceBranch(site int32, taken bool)
}

// RunTrace is Run with a branch-outcome stream: it executes the program on
// the micro-op path and forwards every conditional-branch outcome to sink.
// A nil sink makes it identical to Run. The profile returned is bit-identical
// to Run's — tracing only observes, it never perturbs.
func RunTrace(p *ir.Program, cfg Config, sink TraceSink) (*Profile, error) {
	totalRuns.Add(1)
	m := newMachine(p, cfg)
	defer m.release()
	return m.runU(sink)
}

// runU executes main on the micro-op path.
func (m *machine) runU(sink TraceSink) (*Profile, error) {
	m.beginTrace(sink)
	umain := m.buildUImages()
	if umain == nil {
		return nil, ErrNoMain
	}
	var args [numURegs]int64 // main's A0..A5 and FA0..FA5 are zero
	ret, _, err := m.callU(umain, &args, m.cfg.MemWords, -1)
	if err != nil {
		return nil, fmt.Errorf("interp: %s: %w", m.prog.Name, err)
	}
	return m.finish(ret), nil
}

// beginTrace installs the sink and hands it the (already complete, see
// newMachine) site table.
func (m *machine) beginTrace(sink TraceSink) {
	if sink == nil {
		return
	}
	m.trace = sink
	sink.BeginTrace(m.refs)
}

// TraceAggregate is a TraceSink that folds the stream back into per-site
// executed/taken counts plus an order-sensitive FNV-1a digest, so tests can
// assert both that the stream aggregates bit-identically to the profile and
// that two executions produced the same stream event for event without
// storing either stream.
type TraceAggregate struct {
	refs   []ir.BranchRef
	counts []BranchCount
	digest uint64
	events int64
}

// fnvOffset/fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (a *TraceAggregate) BeginTrace(refs []ir.BranchRef) {
	a.refs = refs
	a.counts = make([]BranchCount, len(refs))
	a.digest = fnvOffset
	a.events = 0
}

func (a *TraceAggregate) TraceBranch(site int32, taken bool) {
	c := &a.counts[site]
	c.Executed++
	t := uint64(0)
	if taken {
		c.Taken++
		t = 1
	}
	// FNV-1a over the (site, taken) pair, one byte-sized mix per field so
	// event order matters.
	a.digest = (a.digest ^ uint64(uint32(site))) * fnvPrime
	a.digest = (a.digest ^ t) * fnvPrime
	a.events++
}

// Events returns the number of branch events observed.
func (a *TraceAggregate) Events() int64 { return a.events }

// Digest returns the order-sensitive stream digest.
func (a *TraceAggregate) Digest() uint64 { return a.digest }

// Check verifies the stream aggregates bit-identically to a profile from the
// same execution: per-site Executed and Taken must match exactly, and the
// event total must equal prof.CondExec. Any divergence is an error, never a
// silently wrong number (the CycleCountModel contract).
func (a *TraceAggregate) Check(prof *Profile) error {
	if a.refs == nil {
		return fmt.Errorf("interp: trace check before BeginTrace")
	}
	if len(prof.Branches) != len(a.refs) {
		return fmt.Errorf("interp: trace saw %d sites, profile has %d",
			len(a.refs), len(prof.Branches))
	}
	for i, ref := range a.refs {
		pc := prof.Branches[ref]
		if pc == nil {
			return fmt.Errorf("interp: trace site %s:b%d missing from profile", ref.Func, ref.Block)
		}
		if c := a.counts[i]; c != *pc {
			return fmt.Errorf("interp: %s:b%d stream aggregated %d/%d executed/taken, profile recorded %d/%d",
				ref.Func, ref.Block, c.Executed, c.Taken, pc.Executed, pc.Taken)
		}
	}
	if a.events != prof.CondExec {
		return fmt.Errorf("interp: stream carried %d events, profile recorded %d conditional executions",
			a.events, prof.CondExec)
	}
	return nil
}
