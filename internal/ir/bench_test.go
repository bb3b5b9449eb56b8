package ir_test

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/ir"
)

// BenchmarkVerify times Program.Verify over the 43 study programs (each
// linked with the runtime library); one op verifies all of them.
func BenchmarkVerify(b *testing.B) {
	var progs []*ir.Program
	for _, e := range corpus.Study() {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			if err := prog.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
