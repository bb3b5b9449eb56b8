package artifact_test

// The cache at generated-corpus scale: a thousand-plus concurrent fills and
// reads over a generated corpus, with the no-corruption, no-duplicate-trace,
// and stale-entry-recovery guarantees that let a killed `esptool train -gen`
// resume by rerunning against the same cache. Lives
// in an external test package because it exercises the cache through the
// real analysis pipeline (core + gencorpus), which the in-package unit
// tests cannot import.

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/gencorpus"
	"repro/internal/interp"
	"repro/internal/ir"
)

// scaleCorpus compiles a generated corpus once, returning the programs and
// their run configurations.
func scaleCorpus(t *testing.T, n int) ([]*ir.Program, []interp.Config) {
	t.Helper()
	spec := gencorpus.Spec{Seed: 31, N: n}
	progs := make([]*ir.Program, n)
	cfgs := make([]interp.Config, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := spec.Program(i).Entry()
			progs[i], errs[i] = e.Compile(codegen.Default)
			cfgs[i] = e.RunConfig()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
	return progs, cfgs
}

func TestCacheAtStreamingScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const programs = 128
	const warmRounds = 8 // 128 * 8 = 1024 concurrent warm fills
	progs, cfgs := scaleCorpus(t, programs)
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Cold phase: every program analyzed concurrently through the cache.
	// Each unique (program, config) must be traced exactly once.
	before := interp.TotalRuns()
	cold := make([]*core.ProgramData, programs)
	var wg sync.WaitGroup
	for i := 0; i < programs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pd, err := core.AnalyzeCached(cache, progs[i], ir.LangC, cfgs[i])
			if err != nil {
				t.Errorf("cold analyze %d: %v", i, err)
				return
			}
			cold[i] = pd
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if traces := interp.TotalRuns() - before; traces != programs {
		t.Fatalf("cold fill did %d interpreter traces for %d unique programs", traces, programs)
	}

	// Warm storm: 1000+ concurrent reads of the filled cache. Zero traces,
	// and every result bit-identical to the cold analysis.
	before = interp.TotalRuns()
	for round := 0; round < warmRounds; round++ {
		for i := 0; i < programs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pd, err := core.AnalyzeCached(cache, progs[i], ir.LangC, cfgs[i])
				if err != nil {
					t.Errorf("warm analyze %d: %v", i, err)
					return
				}
				if !reflect.DeepEqual(pd.Vectors, cold[i].Vectors) {
					t.Errorf("program %d: warm vectors differ from cold", i)
				}
				if !reflect.DeepEqual(pd.Profile.Branches, cold[i].Profile.Branches) ||
					pd.Profile.Insns != cold[i].Profile.Insns {
					t.Errorf("program %d: warm profile differs from cold", i)
				}
			}(i)
		}
	}
	wg.Wait()
	if traces := interp.TotalRuns() - before; traces != 0 {
		t.Fatalf("warm storm did %d interpreter traces, want 0", traces)
	}
}

func TestCacheRecoversFromStaleEntries(t *testing.T) {
	const programs = 8
	progs, cfgs := scaleCorpus(t, programs)
	dir := t.TempDir()
	cache, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Poison the directory before any store: for every program, a garbage
	// file already sits at its exact cache path, plus unrelated junk that
	// shares the directory.
	for i := range progs {
		key := artifact.Key(progs[i], cfgs[i])
		if err := os.WriteFile(filepath.Join(dir, key+".espa"), []byte("ESPAgarbage-not-a-record"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, junk := range []string{"README.txt", "0000.espa", ".espa-dead.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Every poisoned entry must read as a miss, recompute, and overwrite.
	before := interp.TotalRuns()
	for i := range progs {
		if _, err := core.AnalyzeCached(cache, progs[i], ir.LangC, cfgs[i]); err != nil {
			t.Fatalf("analyze over poisoned entry %d: %v", i, err)
		}
	}
	if traces := interp.TotalRuns() - before; traces != programs {
		t.Fatalf("poisoned entries caused %d traces, want %d (all misses)", traces, programs)
	}

	// After the repair pass the entries are valid: zero further traces.
	before = interp.TotalRuns()
	for i := range progs {
		if _, err := core.AnalyzeCached(cache, progs[i], ir.LangC, cfgs[i]); err != nil {
			t.Fatalf("analyze after repair %d: %v", i, err)
		}
	}
	if traces := interp.TotalRuns() - before; traces != 0 {
		t.Fatalf("repaired entries still traced %d times", traces)
	}
}
