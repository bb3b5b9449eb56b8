// Heuristic study: how language- and architecture-dependent the Ball/Larus
// heuristics are (Sections 3.1.2 and 5.2 of the paper).
//
// The program measures each heuristic in isolation over the C group, the
// Fortran group, and the three Scheme programs, and again under the
// MIPS-style target — reproducing the paper's observations that several
// heuristics swing by more than 10 points between languages, and that the
// Scheme idioms (recursion as iteration, interned structure) invert the
// Return and Pointer heuristics.
//
// Run with: go run ./examples/heuristicstudy
package main

import (
	"fmt"
	"log"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/heuristics"
)

func analyze(entries []corpus.Entry, tgt codegen.Target) []*core.ProgramData {
	var out []*core.ProgramData
	for _, e := range entries {
		prog, err := e.Compile(tgt)
		if err != nil {
			log.Fatal(err)
		}
		pd, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, pd)
	}
	return out
}

// groupMiss measures per-heuristic miss rates over a program group,
// averaging per program and skipping programs where a heuristic covers
// less than 1% of branches (the paper's Table 6 rule).
func groupMiss(data []*core.ProgramData) [heuristics.NumHeuristics]float64 {
	var sum [heuristics.NumHeuristics]float64
	var n [heuristics.NumHeuristics]int
	for _, pd := range data {
		per := heuristics.PerHeuristic(pd.Vectors, pd.Evidence(), pd.Profile)
		for h := range per {
			if per[h].CoverageFraction() >= 0.01 {
				sum[h] += per[h].MissRate()
				n[h]++
			}
		}
	}
	var out [heuristics.NumHeuristics]float64
	for h := range out {
		if n[h] > 0 {
			out[h] = sum[h] / float64(n[h])
		}
	}
	return out
}

func main() {
	cGroup := analyze(corpus.ByLanguage("C"), codegen.Default)
	fGroup := analyze(corpus.ByLanguage("FORT"), codegen.Default)
	scheme := analyze(corpus.BySuite(corpus.SuiteScheme), codegen.Default)
	mips := analyze(corpus.Study(), codegen.MIPSCC)

	c, f, s, m := groupMiss(cGroup), groupMiss(fGroup), groupMiss(scheme), groupMiss(mips)

	fmt.Println("per-heuristic miss rates (%) by language group and target:")
	fmt.Printf("%-12s %8s %8s %8s %12s\n", "heuristic", "C", "FORT", "Scheme", "MIPS target")
	divergent := 0
	for h := heuristics.Heuristic(0); h < heuristics.NumHeuristics; h++ {
		fmt.Printf("%-12s %8.1f %8.1f %8.1f %12.1f\n",
			h, 100*c[h], 100*f[h], 100*s[h], 100*m[h])
		d := c[h] - f[h]
		if d < 0 {
			d = -d
		}
		if d > 0.10 {
			divergent++
		}
	}
	fmt.Printf("\n%d of %d heuristics differ by more than 10 points between C and Fortran\n",
		divergent, int(heuristics.NumHeuristics))
	fmt.Printf("Scheme inversion: Pointer %+.0f points vs C, Return %+.0f points vs C\n",
		100*(s[heuristics.Pointer]-c[heuristics.Pointer]),
		100*(s[heuristics.Return]-c[heuristics.Return]))
}
