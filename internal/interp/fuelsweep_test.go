package interp_test

import (
	"errors"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Faults late in one long straight-line segment of main: the segment charge
// covers the whole run of instructions, so every budget that ends inside it
// is an uncovered charge, and the exact twin must fail at the instruction
// the reference runs dry on — or at the fault, when the budget reaches it.
const (
	divZeroSrc = `int z;
int main() {
	int a; int b; int c; int d;
	a = 3; b = 5; c = a * b + 7; d = c - a;
	a = a + b; b = b * c; c = c + d; d = d * 2;
	a = a + 1; b = b - a; c = c * 3; d = d + c;
	d = d / z;
	a = a + d; b = b + a; c = c + b;
	__print(c);
	return c;
}
`
	oobStoreSrc = `int g[4];
int main() {
	int a; int b; int c; int i;
	a = 3; b = 5; c = a * b + 7;
	a = a + b; b = b * c; c = c + a;
	i = c * 100000;
	a = a + 1; b = b - a;
	g[i] = b;
	a = a + b; c = c + a;
	__print(c);
	return c;
}
`
)

// fuelSweep is one input of the fuel sweep: a program swept over every
// budget from 1 to maxInsns. fault, when set, is the error the budgets past
// the program's fault end in; some budget must reach it on an exact twin
// (the fault fires before an uncovered segment runs dry).
type fuelSweep struct {
	name     string
	prog     *ir.Program
	cfg      interp.Config
	maxInsns int64
	fault    error
}

// fuelSweeps are four corpus programs, swept over their first 3000
// instructions, and the two fault programs, swept past their fault.
func fuelSweeps(t *testing.T) []fuelSweep {
	var out []fuelSweep
	for _, name := range []string{"compress", "boyer", "tomcatv", "li"} {
		e, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("corpus entry %q missing", name)
		}
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fuelSweep{name, prog, e.RunConfig(), 3000, nil})
	}
	for _, tc := range []struct {
		name string
		src  string
		want error
	}{
		{"divzero", divZeroSrc, interp.ErrDivZero},
		{"oobstore", oobStoreSrc, interp.ErrMemBounds},
	} {
		ast, err := minic.Parse(tc.name, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fuelSweep{tc.name, prog, interp.Config{}, int64(prog.NumInsns()) + 8, tc.want})
	}
	return out
}

// TestFuelSweepMatchesReference runs every budget from one instruction up,
// with edges off and on, and requires the micro-op path to end exactly as
// the reference does: the same error text (or the same profile), the same
// branch-outcome stream up to that point, an exact twin lowered for every
// out-of-fuel error, and none for a run that finishes.
func TestFuelSweepMatchesReference(t *testing.T) {
	for _, sw := range fuelSweeps(t) {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			var fuelOuts, twinFaults int
			for _, edges := range []bool{false, true} {
				for fuel := int64(1); fuel <= sw.maxInsns; fuel++ {
					cfg := sw.cfg
					cfg.CollectEdges = edges
					cfg.MaxInsns = fuel
					// An eighth of the default memory: the first few
					// thousand instructions need little, and every budget
					// is a fresh machine.
					cfg.MemWords = interp.DefaultMemWords / 8
					var utr, rtr interp.TraceAggregate
					uop, _, twins, uerr := interp.RunLowered(sw.prog, cfg, &utr)
					ref, rerr := interp.RunReferenceTrace(sw.prog, cfg, &rtr)
					if (uerr == nil) != (rerr == nil) ||
						(uerr != nil && uerr.Error() != rerr.Error()) {
						t.Fatalf("edges=%v MaxInsns=%d: uop err %v, reference err %v",
							edges, fuel, uerr, rerr)
					}
					if utr.Digest() != rtr.Digest() || utr.Events() != rtr.Events() {
						t.Fatalf("edges=%v MaxInsns=%d: uop stream %016x/%d, reference %016x/%d",
							edges, fuel, utr.Digest(), utr.Events(), rtr.Digest(), rtr.Events())
					}
					if uerr == nil {
						diffProfiles(t, sw.name, uop, ref)
					}
					switch {
					case errors.Is(uerr, interp.ErrFuel):
						fuelOuts++
						if len(twins) == 0 {
							t.Fatalf("edges=%v MaxInsns=%d: ran out of fuel without an exact twin",
								edges, fuel)
						}
					case uerr == nil:
						if len(twins) > 0 {
							t.Fatalf("edges=%v MaxInsns=%d: finished within budget but lowered twins of %v",
								edges, fuel, twins)
						}
					case sw.fault != nil && errors.Is(uerr, sw.fault) && len(twins) > 0:
						twinFaults++
					}
				}
			}
			if fuelOuts == 0 {
				t.Fatal("no budget ran out of fuel: vacuous sweep")
			}
			if sw.fault != nil && twinFaults == 0 {
				t.Fatalf("no budget ending inside the fault's segment reached the %v fault", sw.fault)
			}
		})
	}
}
