package interp_test

import (
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/gencorpus"
	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/minic"
)

// The generator's budgets: the serving-layer parse and CFG limits, and a
// fuel ceiling far below the interpreter default.
const (
	parseDepthBudget = 64
	cfgBlocksBudget  = 2048
	fuelBudget       = 4_000_000
)

// FuzzGenCorpus drives generator output — and byte-level mutations of it —
// through parse, compile, and the micro-op-vs-reference differential: both
// interpreters must agree on result, outputs, instruction count, and the
// profile (branch counts, conditional totals, call counts), or agree that
// the program fails. Seeds cover every mix; the mutation bytes
// let the fuzzer explore programs the generator itself would never emit.
func FuzzGenCorpus(f *testing.F) {
	for _, m := range gencorpus.AllMixes() {
		f.Add(int64(1), uint8(m), []byte{})
		f.Add(int64(42), uint8(m), []byte{3, 'x', 9, '+'})
	}
	alphabet := []byte("0123456789+-*<>=!;xyzar ")
	f.Fuzz(func(t *testing.T, seed int64, mixByte uint8, mut []byte) {
		mix := gencorpus.Mix(int(mixByte) % len(gencorpus.AllMixes()))
		p := gencorpus.Generate(seed, mix)
		src := []byte(p.Source)
		// Apply (position, replacement) pairs inside the generated portion;
		// replacements are drawn from a source-plausible alphabet so a
		// useful fraction survives the parser.
		for i := 0; i+1 < len(mut) && len(src) > 0; i += 2 {
			pos := int(mut[i]) * len(src) / 256
			src[pos] = alphabet[int(mut[i+1])%len(alphabet)]
		}
		lim := minic.Limits{MaxDepth: parseDepthBudget}
		ast, err := minic.ParseWithLimits(p.Name, string(src)+corpus.StdlibSource+corpus.Stdlib2Source, lim)
		if err != nil {
			return // mutation broke the syntax; nothing to compare
		}
		prog, err := codegen.CompileBounded(ast, p.Entry().Language, codegen.Default,
			guard.Limits{CFGBlocks: cfgBlocksBudget})
		if err != nil {
			return // mutation broke typing or the CFG budget
		}
		cfg := p.Entry().RunConfig()
		cfg.MaxInsns = fuelBudget
		got, gerr := interp.Run(prog, cfg)
		ref, rerr := interp.RunReference(prog, cfg)
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("interpreters disagree on failure: uop=%v ref=%v\n%s", gerr, rerr, src)
		}
		if gerr != nil {
			return // both failed (a mutated program may run out of fuel or trap)
		}
		if got.Result != ref.Result || got.Insns != ref.Insns {
			t.Fatalf("uop result %d/%d insns, reference %d/%d\n%s",
				got.Result, got.Insns, ref.Result, ref.Insns, src)
		}
		if !reflect.DeepEqual(got.Outputs, ref.Outputs) {
			t.Fatalf("outputs diverge: uop %v, reference %v\n%s", got.Outputs, ref.Outputs, src)
		}
		if got.CondExec != ref.CondExec || got.CondTaken != ref.CondTaken {
			t.Fatalf("uop %d/%d conditional executed/taken, reference %d/%d\n%s",
				got.CondExec, got.CondTaken, ref.CondExec, ref.CondTaken, src)
		}
		if !reflect.DeepEqual(got.Branches, ref.Branches) {
			t.Fatalf("branch counts diverge\n%s", src)
		}
		if !reflect.DeepEqual(got.Calls, ref.Calls) {
			t.Fatalf("call counts diverge: uop %v, reference %v\n%s", got.Calls, ref.Calls, src)
		}
	})
}
