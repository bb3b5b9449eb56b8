package features_test

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/ir"
)

// studyPrograms compiles the 43 study programs once, outside the timed loop.
func studyPrograms(b *testing.B) []*ir.Program {
	b.Helper()
	var progs []*ir.Program
	for _, e := range corpus.Study() {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

var benchSites int

// BenchmarkCollect times the branch-site analysis (CFGs, dominators, loops,
// pointer inference, condition recovery) over the whole study corpus; one
// op analyzes all 43 programs.
func BenchmarkCollect(b *testing.B) {
	progs := studyPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			benchSites += len(features.Collect(prog).Sites)
		}
	}
}

// BenchmarkCollectExtract adds feature extraction to BenchmarkCollect: the
// full static half of a warm analysis.
func BenchmarkCollectExtract(b *testing.B) {
	progs := studyPrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			benchSites += len(features.ExtractAll(features.Collect(prog)))
		}
	}
}
