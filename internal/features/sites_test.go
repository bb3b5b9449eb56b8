package features_test

import (
	"cmp"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
)

// TestCollectOrdersSites checks, over every corpus program, that Collect
// returns one site per two-way branch block, ordered by (function name,
// block ID), each reachable through Site.
func TestCollectOrdersSites(t *testing.T) {
	for _, e := range corpus.All() {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		ps := features.Collect(prog)
		want := 0
		for _, g := range ps.Graphs {
			for i := 0; i < g.N(); i++ {
				if g.IsBranchBlock(i) {
					want++
				}
			}
		}
		if len(ps.Sites) != want {
			t.Fatalf("%s: %d sites, want %d", e.Name, len(ps.Sites), want)
		}
		for i, s := range ps.Sites {
			if ps.Site(s.Ref) != s {
				t.Fatalf("%s: Site(%v) does not return the site", e.Name, s.Ref)
			}
			if s.G.Block(s.BlockIdx).ID != s.Ref.Block || s.Fn.Name != s.Ref.Func {
				t.Fatalf("%s: site %v points at %s block %d", e.Name, s.Ref, s.Fn.Name, s.G.Block(s.BlockIdx).ID)
			}
			if i == 0 {
				continue
			}
			prev := ps.Sites[i-1].Ref
			if c := cmp.Or(cmp.Compare(prev.Func, s.Ref.Func), cmp.Compare(prev.Block, s.Ref.Block)); c >= 0 {
				t.Fatalf("%s: site %v follows %v", e.Name, s.Ref, prev)
			}
		}
	}
}
