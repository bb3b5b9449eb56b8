package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/interp"
)

// A cache hit must be bit-identical to a fresh Analyze — same profile
// counts, same vectors, same rebuilt sites — and must not run the
// interpreter at all.
func TestAnalyzeCachedBitIdentical(t *testing.T) {
	e, ok := corpus.ByName("bc")
	if !ok {
		t.Fatal("no corpus program bc")
	}
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := Analyze(prog, e.Language, e.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := AnalyzeCached(cache, prog, e.Language, e.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Profile, fresh.Profile) || !reflect.DeepEqual(cold.Vectors, fresh.Vectors) {
		t.Fatal("cold cached analysis differs from plain Analyze")
	}

	before := interp.TotalRuns()
	warm, err := AnalyzeCached(cache, prog, e.Language, e.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := interp.TotalRuns() - before; got != 0 {
		t.Fatalf("warm analysis ran the interpreter %d times", got)
	}
	if !reflect.DeepEqual(warm.Profile, fresh.Profile) || !reflect.DeepEqual(warm.Vectors, fresh.Vectors) {
		t.Fatal("warm cached analysis differs from plain Analyze")
	}
	if len(warm.Sites.Sites) != len(fresh.Sites.Sites) {
		t.Fatal("warm sites not rebuilt")
	}

	// The warm result must train identically: Examples feed the classifier.
	if !reflect.DeepEqual(warm.Examples(), fresh.Examples()) {
		t.Fatal("warm examples differ")
	}
}

// A config change must miss (and re-trace) rather than serve the wrong
// profile.
func TestAnalyzeCachedConfigMiss(t *testing.T) {
	e, _ := corpus.ByName("bc")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeCached(cache, prog, e.Language, e.RunConfig()); err != nil {
		t.Fatal(err)
	}
	cfg := e.RunConfig()
	cfg.Seed += 99
	before := interp.TotalRuns()
	if _, err := AnalyzeCached(cache, prog, e.Language, cfg); err != nil {
		t.Fatal(err)
	}
	if interp.TotalRuns() == before {
		t.Fatal("changed config served from cache")
	}
}

// A record naming a library image other than the program's, one this
// process does not build for it, is a miss: the analysis re-traces and
// equals a fresh one.
func TestAnalyzeCachedUnknownImageMiss(t *testing.T) {
	e, _ := corpus.ByName("bc")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Image == nil {
		t.Fatal("bc is not linked against the runtime library")
	}
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := AnalyzeCached(cache, prog, e.Language, e.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.Key(prog, e.RunConfig())
	rec, ok := cache.Load(key)
	if !ok || rec.Image != prog.Image.ID || len(rec.Vectors) >= len(fresh.Vectors) {
		t.Fatal("a linked program's record does not name its image or keeps library vectors")
	}
	rec.Image = strings.Repeat("0", len(rec.Image))
	if err := cache.Store(key, rec); err != nil {
		t.Fatal(err)
	}
	before := interp.TotalRuns()
	got, err := AnalyzeCached(cache, prog, e.Language, e.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if interp.TotalRuns() == before {
		t.Fatal("a record naming an unknown image was served")
	}
	if !reflect.DeepEqual(got.Profile, fresh.Profile) || !reflect.DeepEqual(got.Vectors, fresh.Vectors) {
		t.Fatal("re-analysis differs")
	}
}
