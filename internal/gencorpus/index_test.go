package gencorpus_test

// The source-index shortcut of ShardedCorpus: a warm entry is served from
// its cached record alone, and every way the index or the record can be
// missing, damaged or stale falls back to the full path with bit-identical
// examples.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/interp"
)

// work is a snapshot of the process-wide counts of the steps a warm
// analysis must skip.
type work struct{ compiles, collects, runs int64 }

func snapshot() work {
	return work{codegen.TotalCompiles(), features.TotalCollects(), interp.TotalRuns()}
}

func (w work) since() work {
	now := snapshot()
	return work{now.compiles - w.compiles, now.collects - w.collects, now.runs - w.runs}
}

// sameExamples compares examples bit for bit, floats by their bits.
func sameExamples(a, b []core.Example) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Vector != b[i].Vector ||
			math.Float64bits(a[i].Target) != math.Float64bits(b[i].Target) ||
			math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
	}
	return true
}

func openCache(t *testing.T, dir string) *artifact.Cache {
	t.Helper()
	c, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func examplesOf(t *testing.T, src *gencorpus.ShardedCorpus) []core.Example {
	t.Helper()
	ex, err := src.Examples()
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// indexPath is where a cache keeps the index entry of one ShardedCorpus
// pass over entries under binary identity id.
func indexPath(c *artifact.Cache, id []byte, entries []corpus.Entry) string {
	srcs := make([]artifact.Source, len(entries))
	for i, e := range entries {
		srcs[i] = artifact.Source{Name: e.Name, Language: e.Language, Target: codegen.Default,
			Run: e.RunConfig(), Text: e.Source}
	}
	return filepath.Join(c.Dir(), artifact.IndexKey(id, srcs)+".espi")
}

// recordPath is where a cache keeps e's record.
func recordPath(t *testing.T, c *artifact.Cache, e corpus.Entry) string {
	t.Helper()
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(c.Dir(), artifact.Key(prog, e.RunConfig())+".espa")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func identity(t *testing.T) []byte {
	t.Helper()
	id := artifact.BinaryIdentity()
	if id == nil {
		t.Fatal("the test binary cannot be read, so the source index is off")
	}
	return id
}

// TestWarmExamplesDoNoWork: over a filled cache, Examples compiles nothing,
// collects no sites and runs no interpreter, and returns the cold examples.
func TestWarmExamplesDoNoWork(t *testing.T) {
	entries := gencorpus.Spec{Seed: 13, N: 10}.Entries()
	cache := openCache(t, t.TempDir())
	src := &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}
	cold := examplesOf(t, src)
	readFile(t, indexPath(cache, identity(t), entries))

	before := snapshot()
	warm := examplesOf(t, src)
	if w := before.since(); w != (work{}) {
		t.Errorf("warm pass did %d compiles, %d site collections, %d interpreter runs; want none",
			w.compiles, w.collects, w.runs)
	}
	if !sameExamples(warm, cold) {
		t.Fatal("warm examples differ from cold")
	}

	// With the index off, the same cache still serves every record, but
	// each entry pays its front end again.
	defer gencorpus.SetBinaryIdentity(nil)()
	before = snapshot()
	off := examplesOf(t, src)
	if w := before.since(); w.runs != 0 || w.compiles < int64(len(entries)) {
		t.Errorf("index off: %d compiles and %d runs; want at least %d compiles and no runs",
			w.compiles, w.runs, len(entries))
	}
	if !sameExamples(off, cold) {
		t.Fatal("examples with the index off differ from cold")
	}
}

// TestSourceIndexDamageIsMiss damages the index entry, or one program's
// record, in each way a crash, an eviction, another binary or a bug could,
// and requires the next pass to recompute what the damage touched — every
// front end for a bad index entry, one program's for a bad record or site
// count — overwrite the damage with the original bytes and return
// bit-identical examples; the pass after that is fully warm again.
func TestSourceIndexDamageIsMiss(t *testing.T) {
	entries := gencorpus.Spec{Seed: 17, N: 6}.Entries()
	id := identity(t)
	n := int64(len(entries))
	type damage struct {
		apply     func(t *testing.T, c *artifact.Cache, ix, rec string)
		frontEnds int64 // programs that must compile and collect again
		runs      int64 // interpreter runs the recompute needs
	}
	flip := func(t *testing.T, path string) {
		b := readFile(t, path)
		b[len(b)-3] ^= 0x20
		writeFile(t, path, b)
	}
	damages := map[string]damage{
		"truncated index": {func(t *testing.T, _ *artifact.Cache, ix, _ string) {
			writeFile(t, ix, readFile(t, ix)[:20])
		}, n, 0},
		"corrupt index": {func(t *testing.T, _ *artifact.Cache, ix, _ string) { flip(t, ix) }, n, 0},
		"mis-keyed index": {func(t *testing.T, c *artifact.Cache, ix, _ string) {
			examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries[:3], Cache: c})
			writeFile(t, ix, readFile(t, indexPath(c, id, entries[:3])))
		}, n, 0},
		"other binary index": {func(t *testing.T, c *artifact.Cache, ix, _ string) {
			other := bytes.Repeat([]byte{0xA5}, len(id))
			defer gencorpus.SetBinaryIdentity(other)()
			examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Cache: c})
			writeFile(t, ix, readFile(t, indexPath(c, other, entries)))
		}, n, 0},
		"site-count mismatch": {func(t *testing.T, c *artifact.Cache, ix, _ string) {
			key := strings.TrimSuffix(filepath.Base(ix), ".espi")
			hints, ok := c.LoadIndex(key, len(entries))
			if !ok {
				t.Fatal("no index entry to mismatch")
			}
			hints[0].Sites++
			if err := c.StoreIndex(key, hints); err != nil {
				t.Fatal(err)
			}
		}, 1, 0},
		"evicted record": {func(t *testing.T, _ *artifact.Cache, _, rec string) {
			if err := os.Remove(rec); err != nil {
				t.Fatal(err)
			}
		}, 1, 1},
		"corrupt record": {func(t *testing.T, _ *artifact.Cache, _, rec string) { flip(t, rec) }, 1, 1},
		"previous-format record": {func(t *testing.T, _ *artifact.Cache, _, rec string) {
			writeFile(t, rec, bytes.Replace(readFile(t, rec), []byte(artifact.FormatVersion), []byte("espa-5"), 1))
		}, 1, 1},
		"record naming an unknown image": {func(t *testing.T, c *artifact.Cache, _, rec string) {
			key := strings.TrimSuffix(filepath.Base(rec), ".espa")
			r, ok := c.Load(key)
			if !ok || r.Image == "" {
				t.Fatal("no linked program's record to rename the image of")
			}
			r.Image = strings.Repeat("f", 64)
			if err := c.Store(key, r); err != nil {
				t.Fatal(err)
			}
		}, 1, 1},
	}
	for name, d := range damages {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			cache := openCache(t, t.TempDir())
			src := &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}
			want := examplesOf(t, src)
			ix, rec := indexPath(cache, id, entries), recordPath(t, cache, entries[0])
			goodIx, goodRec := readFile(t, ix), readFile(t, rec)

			d.apply(t, cache, ix, rec)
			before := snapshot()
			got := examplesOf(t, src)
			w := before.since()
			if w.compiles < d.frontEnds || w.collects != d.frontEnds || w.runs != d.runs {
				t.Errorf("damaged pass: %d compiles, %d collections, %d runs; want %d front ends and %d runs",
					w.compiles, w.collects, w.runs, d.frontEnds, d.runs)
			}
			if !sameExamples(got, want) {
				t.Fatal("examples after the damage differ")
			}
			if !bytes.Equal(readFile(t, ix), goodIx) || !bytes.Equal(readFile(t, rec), goodRec) {
				t.Fatal("the recompute did not overwrite the damage")
			}

			before = snapshot()
			again := examplesOf(t, src)
			if w := before.since(); w != (work{}) {
				t.Errorf("pass after the repair did work: %+v", w)
			}
			if !sameExamples(again, want) {
				t.Fatal("examples after the repair differ")
			}
		})
	}
}

// TestSourceIndexOtherBinary: a cache filled by another binary shares its
// records but none of its index entries, so this binary compiles every
// entry once, runs nothing, and indexes under its own identity.
func TestSourceIndexOtherBinary(t *testing.T) {
	entries := gencorpus.Spec{Seed: 19, N: 6}.Entries()
	cache := openCache(t, t.TempDir())
	src := &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}
	restore := gencorpus.SetBinaryIdentity(bytes.Repeat([]byte{0x5A}, 32))
	want := examplesOf(t, src)
	restore()

	before := snapshot()
	got := examplesOf(t, src)
	if w := before.since(); w.compiles < int64(len(entries)) || w.runs != 0 {
		t.Errorf("first pass as this binary: %d compiles, %d runs; want every front end and no runs", w.compiles, w.runs)
	}
	if !sameExamples(got, want) {
		t.Fatal("examples differ between binaries")
	}
	before = snapshot()
	examplesOf(t, src)
	if w := before.since(); w != (work{}) {
		t.Errorf("second pass as this binary did work: %+v", w)
	}
}

// TestSourceIndexWorkersAndFaults: cold and warm passes at one worker and
// at full width, and passes under injected cache load and store faults,
// all return the examples of a clean cold pass.
func TestSourceIndexWorkersAndFaults(t *testing.T) {
	entries := gencorpus.Spec{Seed: 23, N: 10}.Entries()
	want := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Cache: openCache(t, t.TempDir())})

	for _, procs := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
		src := &gencorpus.ShardedCorpus{Entries: entries, Cache: openCache(t, t.TempDir())}
		prev := runtime.GOMAXPROCS(procs)
		cold, warm := examplesOf(t, src), examplesOf(t, src)
		runtime.GOMAXPROCS(prev)
		if !sameExamples(cold, want) || !sameExamples(warm, want) {
			t.Fatalf("GOMAXPROCS=%d: examples differ", procs)
		}
	}

	for seed := uint64(1); seed <= 3; seed++ {
		cache := openCache(t, t.TempDir())
		inj := faultinject.New(seed,
			faultinject.Rule{Site: "artifact.load", Kind: faultinject.Error, Rate: 0.3},
			faultinject.Rule{Site: "artifact.store", Kind: faultinject.Error, Rate: 0.3})
		deactivate := faultinject.Activate(inj)
		for pass := 0; pass < 3; pass++ {
			if got := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}); !sameExamples(got, want) {
				deactivate()
				t.Fatalf("seed %d pass %d under faults: examples differ", seed, pass)
			}
		}
		deactivate()
		if inj.Fired("artifact.load") == 0 || inj.Fired("artifact.store") == 0 {
			t.Errorf("seed %d: faults fired %d loads, %d stores; want both", seed,
				inj.Fired("artifact.load"), inj.Fired("artifact.store"))
		}
		if got := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}); !sameExamples(got, want) {
			t.Fatalf("seed %d: examples differ after the faults stop", seed)
		}
	}
}

// TestSourceIndexRespectsMaxBytes: index entries count toward the cache's
// size bound. A bound of the records' size alone must evict, and every
// later pass keeps the whole directory within it.
func TestSourceIndexRespectsMaxBytes(t *testing.T) {
	entries := gencorpus.Spec{Seed: 29, N: 10}.Entries()
	dir := t.TempDir()
	cache := openCache(t, dir)
	src := &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}
	want := examplesOf(t, src)
	sizes := func() (records, index int64) {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			switch filepath.Ext(de.Name()) {
			case ".espa":
				records += info.Size()
			case ".espi":
				index += info.Size()
			default:
				t.Fatalf("stray file %s in the cache", de.Name())
			}
		}
		return records, index
	}
	records, index := sizes()
	if index == 0 {
		t.Fatal("the cold pass wrote no index entries")
	}
	cache.SetMaxBytes(records)
	for pass := 0; pass < 3; pass++ {
		if r, i := sizes(); r+i > records {
			t.Fatalf("pass %d: cache holds %d record and %d index bytes, bound %d", pass, r, i, records)
		}
		if got := examplesOf(t, src); !sameExamples(got, want) {
			t.Fatalf("pass %d under the bound: examples differ", pass)
		}
	}
}

// sitesExamples is the site-keyed construction ProgramData.Examples used
// before examples were keyed on the vectors' refs, kept as the oracle.
func sitesExamples(pd *core.ProgramData) []core.Example {
	var out []core.Example
	for i, s := range pd.Sites.Sites {
		c := pd.Profile.Branches[s.Ref]
		if c == nil || c.Executed == 0 {
			continue
		}
		out = append(out, core.Example{Vector: pd.Vectors[i], Target: c.TakenFraction(),
			Weight: pd.Profile.NormalizedWeight(s.Ref)})
	}
	return out
}

// TestRecordExamplesMatchSites is the property the index shortcut rests
// on: for every corpus program and a generated program of every mix, each
// vector carries its site's ref, and the examples built from the cached
// record alone equal the site-keyed examples bit for bit.
func TestRecordExamplesMatchSites(t *testing.T) {
	entries := corpus.All()
	for _, m := range gencorpus.AllMixes() {
		entries = append(entries, gencorpus.Spec{Seed: 31, N: 1, Mixes: []gencorpus.Mix{m}}.Entries()...)
	}
	cache := openCache(t, t.TempDir())
	for _, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(pd.Vectors) != len(pd.Sites.Sites) {
			t.Fatalf("%s: %d vectors for %d sites", e.Name, len(pd.Vectors), len(pd.Sites.Sites))
		}
		for i, s := range pd.Sites.Sites {
			if pd.Vectors[i].Ref != s.Ref {
				t.Fatalf("%s: vector %d has ref %v, site %v", e.Name, i, pd.Vectors[i].Ref, s.Ref)
			}
		}
		key := artifact.Key(prog, e.RunConfig())
		if err := cache.Store(key, &artifact.Record{Profile: pd.Profile, Vectors: pd.Vectors}); err != nil {
			t.Fatal(err)
		}
		rec, ok := cache.Load(key)
		if !ok {
			t.Fatalf("%s: record did not read back", e.Name)
		}
		want := sitesExamples(pd)
		if !sameExamples(core.ExamplesOf(rec.Vectors, rec.Profile), want) {
			t.Errorf("%s: record examples differ from the site-keyed examples", e.Name)
		}
		if !sameExamples(pd.Examples(), want) {
			t.Errorf("%s: ProgramData.Examples differs from the site-keyed examples", e.Name)
		}
	}
	if len(entries) != 46+len(gencorpus.AllMixes()) {
		t.Errorf("checked %d programs, want the 46 corpus programs and one per mix", len(entries))
	}
}
