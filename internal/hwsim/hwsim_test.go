package hwsim

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pgo"
)

// The Mux and Taxonomy sinks must satisfy the interpreter's trace contract.
var (
	_ interp.TraceSink = (*Mux)(nil)
	_ interp.TraceSink = (*Taxonomy)(nil)
)

// run feeds a synthetic single-site stream and returns mispredicts.
func run(p Predictor, outcomes []bool) int64 {
	var miss int64
	for _, t := range outcomes {
		if p.Predict(0) != t {
			miss++
		}
		p.Update(0, t)
	}
	return miss
}

func repeat(pattern []bool, n int) []bool {
	out := make([]bool, 0, n*len(pattern))
	for i := 0; i < n; i++ {
		out = append(out, pattern...)
	}
	return out
}

func TestOneBitStateMachine(t *testing.T) {
	// Unseeded: starts not-taken, then tracks the last outcome exactly.
	p := NewOneBit(1, nil)
	stream := []bool{true, true, false, true, false, false}
	// predictions: F T T F T F → miss on events 0, 2, 3, 4
	if got := run(p, stream); got != 4 {
		t.Fatalf("1-bit mispredicts = %d, want 4", got)
	}
	// Seeded taken: the first event is now predicted correctly.
	p = NewOneBit(1, []bool{true})
	if got := run(p, stream); got != 3 {
		t.Fatalf("seeded 1-bit mispredicts = %d, want 3", got)
	}
}

func TestTwoBitHysteresis(t *testing.T) {
	// A strongly-taken site with occasional not-taken blips: the 2-bit
	// counter mispredicts once per blip, the 1-bit twice (classic loop
	// branch behavior).
	pattern := repeat([]bool{true, true, true, false}, 8)
	warm := repeat([]bool{true}, 4)
	stream := append(warm, pattern...)
	miss2 := run(NewTwoBit(1, nil), stream)
	miss1 := run(NewOneBit(1, nil), stream)
	if miss2 >= miss1 {
		t.Fatalf("2-bit (%d misses) should beat 1-bit (%d) on loop-like stream", miss2, miss1)
	}
	// 2-bit: 1 warmup miss + 1 per blip (8 blips) = 9.
	if miss2 != 9 {
		t.Fatalf("2-bit mispredicts = %d, want 9", miss2)
	}
}

func TestSeededTwoBitColdStart(t *testing.T) {
	// A heavily taken-biased site: the seeded counter starts on the right
	// side and never pays the cold-start mispredict.
	stream := repeat([]bool{true}, 64)
	unseeded := run(NewTwoBit(1, nil), stream)
	seeded := run(NewTwoBit(1, []bool{true}), stream)
	if unseeded != 1 || seeded != 0 {
		t.Fatalf("cold start: unseeded %d (want 1), seeded %d (want 0)", unseeded, seeded)
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	// A strict alternation defeats per-site counters but is a trivial
	// function of 1 bit of global history — gshare must learn it.
	stream := repeat([]bool{true, false}, 256)
	g := run(NewGshare(0, nil), stream)
	b := run(NewTwoBit(1, nil), stream)
	if g >= b/4 {
		t.Fatalf("gshare misses %d on alternation, 2-bit %d — gshare failed to learn history", g, b)
	}
}

func TestTageLearnsLongerPattern(t *testing.T) {
	// Period-6 pattern needs more history bits than the pattern period.
	stream := repeat([]bool{true, true, false, true, false, false}, 512)
	tg := run(NewTage(1, nil), stream)
	if rate := float64(tg) / float64(len(stream)); rate > 0.05 {
		t.Fatalf("tage miss rate %.3f on periodic stream, want < 0.05 after warmup", rate)
	}
}

func TestTageDeterministic(t *testing.T) {
	stream := repeat([]bool{true, false, false, true, true, false, true}, 300)
	a := run(NewTage(4, nil), stream)
	b := run(NewTage(4, nil), stream)
	if a != b {
		t.Fatalf("tage not deterministic: %d vs %d", a, b)
	}
}

func TestCounterWarmupCheckpoints(t *testing.T) {
	c := NewCounter(NewOneBit(1, nil))
	// 100 all-taken events: 1-bit misses only the first.
	for i := 0; i < 100; i++ {
		c.Observe(0, true)
	}
	if miss, ev := c.WarmMiss(0); miss != 1 || ev != 64 {
		t.Fatalf("warmup[64] = %d/%d, want 1/64", miss, ev)
	}
	// Stream shorter than the 256 budget: reports the full stream.
	if miss, ev := c.WarmMiss(1); miss != 1 || ev != 100 {
		t.Fatalf("warmup[256] = %d/%d, want 1/100 (stream exhausted)", miss, ev)
	}
	if c.Miss != 1 || c.Events != 100 {
		t.Fatalf("totals %d/%d, want 1/100", c.Miss, c.Events)
	}
}

func TestTaxonomyHandComputed(t *testing.T) {
	var x Taxonomy
	x.BeginTrace(make([]ir.BranchRef, 2))
	// Stream: site0 T, site1 F, site0 T, site0 F, site1 F.
	for _, ev := range []struct {
		site  int32
		taken bool
	}{{0, true}, {1, false}, {0, true}, {0, false}, {1, false}} {
		x.TraceBranch(ev.site, ev.taken)
	}
	s0, s1 := &x.Stats[0], &x.Stats[1]
	if s0.Exec != 3 || s0.Taken != 2 || s1.Exec != 2 || s1.Taken != 0 {
		t.Fatalf("counts: s0 %d/%d s1 %d/%d", s0.Exec, s0.Taken, s1.Exec, s1.Taken)
	}
	// site0 repeats: T→T (same), T→F (diff) = 1/2.
	if s0.SelfSeen != 2 || s0.SameAsSelf != 1 {
		t.Fatalf("s0 self: %d/%d, want 1/2", s0.SameAsSelf, s0.SelfSeen)
	}
	// site1 is perfectly biased: entropy 0, bias 1, self-agreement 1.
	if s1.Entropy() != 0 || s1.Bias() != 1 || s1.SelfAgree() != 1 {
		t.Fatalf("s1 taxonomy: H=%v bias=%v self=%v", s1.Entropy(), s1.Bias(), s1.SelfAgree())
	}
	// Previous-branch agreement for site1: prev events were T (diff) and
	// F (same) → 1/2.
	if s1.PrevSeen != 2 || s1.SameAsPrev != 1 {
		t.Fatalf("s1 prev: %d/%d, want 1/2", s1.SameAsPrev, s1.PrevSeen)
	}
	sum := x.Summarize()
	if sum.Sites != 2 || sum.Events != 5 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestCorpusIntegration runs one real program through RunTrace with the
// full predictor matrix and checks stream accounting: every counter sees
// exactly Profile.CondExec events, and the perfect-profile-seeded 2-bit
// predictor never does worse than the unseeded one at the smallest warmup.
func TestCorpusIntegration(t *testing.T) {
	e, ok := corpus.ByName("espresso")
	if !ok {
		t.Skip("no espresso in corpus")
	}
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.RunConfig()

	prof, err := interp.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := features.Collect(prog)

	var mux Mux
	perfect := &pgo.Measured{Prof: prof}
	pre := &preMux{mux: &mux, vecs: features.ExtractAll(ps), evidence: heuristics.EvidenceOf(ps), perfect: perfect}
	prof2, err := interp.RunTrace(prog, cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range mux.Counters {
		if c.Events != prof2.CondExec {
			t.Fatalf("%s counted %d events, profile says %d", c.Pred.Name(), c.Events, prof2.CondExec)
		}
	}
	// Seeding from the perfect profile must not hurt cold start.
	unseeded, seeded := mux.Counters[0], mux.Counters[1]
	um, _ := unseeded.WarmMiss(0)
	sm, _ := seeded.WarmMiss(0)
	if sm > um {
		t.Fatalf("perfect-seeded 2-bit cold-start misses %d > unseeded %d", sm, um)
	}
}

// preMux defers predictor construction until BeginTrace delivers the site
// table (predictor tables are sized by site count), then relays events.
type preMux struct {
	mux      *Mux
	vecs     []features.Vector
	evidence []heuristics.Evidence
	perfect  pgo.ProbSource
}

func (p *preMux) BeginTrace(refs []ir.BranchRef) {
	hints := Hints(p.perfect, p.vecs, p.evidence, refs)
	p.mux.Counters = []*Counter{
		NewCounter(NewTwoBit(len(refs), nil)),
		NewCounter(NewTwoBit(len(refs), hints)),
		NewCounter(NewOneBit(len(refs), hints)),
		NewCounter(NewGshare(0, hints)),
		NewCounter(NewTage(len(refs), hints)),
	}
}

func (p *preMux) TraceBranch(site int32, taken bool) { p.mux.TraceBranch(site, taken) }
