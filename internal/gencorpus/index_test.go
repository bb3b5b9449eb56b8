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

// recordKeys returns the record keys of entries, compiling each.
func recordKeys(t *testing.T, entries []corpus.Entry) []string {
	t.Helper()
	keys := make([]string, len(entries))
	for i, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = artifact.Key(prog, e.RunConfig())
	}
	return keys
}

// packPath is where a cache keeps the pack of one shard of entries.
func packPath(t *testing.T, c *artifact.Cache, entries []corpus.Entry) string {
	t.Helper()
	return filepath.Join(c.Dir(), artifact.PackKey(recordKeys(t, entries))+".espa")
}

// packFrames returns the offset in the pack file of each of the frames of
// the shard of entries, the end of the last one, and the frames.
func packFrames(t *testing.T, c *artifact.Cache, entries []corpus.Entry) (offsets []int, frames [][]byte) {
	t.Helper()
	keys := recordKeys(t, entries)
	p, ok := c.LoadPack(artifact.PackKey(keys))
	if !ok {
		t.Fatal("no pack for the shard")
	}
	size := len(readFile(t, packPath(t, c, entries)))
	frames = make([][]byte, len(keys))
	var total int
	for i, k := range keys {
		_, f, ok := p.Record(i, k)
		if !ok {
			t.Fatalf("pack frame %d does not verify", i)
		}
		frames[i] = f
		total += len(f)
	}
	off := size - total
	for _, f := range frames {
		offsets = append(offsets, off)
		off += len(f)
	}
	return append(offsets, off), frames
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

// TestSourceIndexDamageIsMiss damages the index entry, the shard's pack,
// or one program's frame inside the pack, in each way a crash, an eviction,
// another binary or a bug could, and requires the next pass to recompute
// what the damage touched — every front end for a bad index entry, every
// front end and run for an evicted pack, one program's for a bad frame or
// site count — overwrite the damage with the original bytes and return
// bit-identical examples; the pass after that is fully warm again.
func TestSourceIndexDamageIsMiss(t *testing.T) {
	entries := gencorpus.Spec{Seed: 17, N: 6}.Entries()
	id := identity(t)
	n := int64(len(entries))
	type damage struct {
		apply     func(t *testing.T, c *artifact.Cache, ix, pack string)
		frontEnds int64 // programs that must compile and collect again
		runs      int64 // interpreter runs the recompute needs
	}
	flip := func(t *testing.T, path string) {
		b := readFile(t, path)
		b[len(b)-3] ^= 0x20
		writeFile(t, path, b)
	}
	// frame0 applies edit to the bytes of the first program's frame inside
	// the pack.
	frame0 := func(t *testing.T, c *artifact.Cache, pack string, edit func([]byte)) {
		offsets, _ := packFrames(t, c, entries)
		b := readFile(t, pack)
		edit(b[offsets[0]:offsets[1]])
		writeFile(t, pack, b)
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
		"evicted pack": {func(t *testing.T, _ *artifact.Cache, _, pack string) {
			if err := os.Remove(pack); err != nil {
				t.Fatal(err)
			}
		}, n, n},
		"corrupt record": {func(t *testing.T, c *artifact.Cache, _, pack string) {
			frame0(t, c, pack, func(f []byte) { f[len(f)-3] ^= 0x20 })
		}, 1, 1},
		"previous-format record": {func(t *testing.T, c *artifact.Cache, _, pack string) {
			frame0(t, c, pack, func(f []byte) {
				copy(f[bytes.Index(f, []byte(artifact.FormatVersion)):], "espa-5")
			})
		}, 1, 1},
		"record naming an unknown image": {func(t *testing.T, c *artifact.Cache, _, _ string) {
			_, frames := packFrames(t, c, entries)
			keys := recordKeys(t, entries)
			r, ok := artifact.DecodeRecord(frames[0], keys[0])
			if !ok || r.Image == "" {
				t.Fatal("no linked program's record to rename the image of")
			}
			r.Image = strings.Repeat("f", 64)
			f, err := artifact.Frame(keys[0], r)
			if err != nil {
				t.Fatal(err)
			}
			frames[0] = f
			if err := c.StorePack(keys, frames); err != nil {
				t.Fatal(err)
			}
		}, 1, 1},
	}
	for name, d := range damages {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			cache := openCache(t, t.TempDir())
			src := &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}
			want := examplesOf(t, src)
			ix, pack := indexPath(cache, id, entries), packPath(t, cache, entries)
			goodIx, goodPack := readFile(t, ix), readFile(t, pack)

			d.apply(t, cache, ix, pack)
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
			if !bytes.Equal(readFile(t, ix), goodIx) || !bytes.Equal(readFile(t, pack), goodPack) {
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

// TestTornPack cuts a shard's pack at every frame boundary, at one offset
// inside each frame and inside its header, as a crash mid-write could. The
// next pass must run the interpreter for exactly the records the cut
// removed, return bit-identical examples and rewrite the pack byte for
// byte; the pass after that does no work.
func TestTornPack(t *testing.T) {
	entries := gencorpus.Spec{Seed: 37, N: 5}.Entries()
	n := int64(len(entries))
	cache := openCache(t, t.TempDir())
	src := &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}
	want := examplesOf(t, src)
	pack := packPath(t, cache, entries)
	good := readFile(t, pack)
	offsets, _ := packFrames(t, cache, entries)
	if offsets[len(entries)] != len(good) {
		t.Fatalf("frames end at %d, pack is %d bytes", offsets[len(entries)], len(good))
	}

	type cut struct {
		at   int
		lost int64 // records the cut removes
	}
	cuts := []cut{{offsets[0] / 2, n}}
	for i := range entries {
		cuts = append(cuts, cut{offsets[i], n - int64(i)}, cut{(offsets[i] + offsets[i+1]) / 2, n - int64(i)})
	}
	for _, c := range cuts {
		writeFile(t, pack, good[:c.at])
		before := snapshot()
		got := examplesOf(t, src)
		if w := before.since(); w.runs != c.lost || w.collects != c.lost {
			t.Errorf("pack cut at byte %d: %d runs and %d collections; want %d of each", c.at, w.runs, w.collects, c.lost)
		}
		if !sameExamples(got, want) {
			t.Fatalf("pack cut at byte %d: examples differ", c.at)
		}
		if !bytes.Equal(readFile(t, pack), good) {
			t.Fatalf("pack cut at byte %d: the pass did not rewrite it byte for byte", c.at)
		}
		before = snapshot()
		examplesOf(t, src)
		if w := before.since(); w != (work{}) {
			t.Errorf("pack cut at byte %d: the pass after the repair did work: %+v", c.at, w)
		}
	}
}

// TestResumeAtShardGranularity is what a killed `esptool train -gen`
// relies on: after a pass over the first two shards, a pass over the whole
// corpus analyzes only the entries after them, and returns the examples of
// an uninterrupted pass.
func TestResumeAtShardGranularity(t *testing.T) {
	const size = 4
	entries := gencorpus.Spec{Seed: 41, N: 2*size + 3}.Entries()
	want := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Size: size, Cache: openCache(t, t.TempDir())})

	cache := openCache(t, t.TempDir())
	examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries[:2*size], Size: size, Cache: cache})
	before := snapshot()
	got := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Size: size, Cache: cache})
	rest := int64(len(entries) - 2*size)
	if w := before.since(); w.runs != rest || w.collects != rest || w.compiles > rest {
		t.Errorf("resumed pass: %d compiles, %d collections, %d runs; want %d of each", w.compiles, w.collects, w.runs, rest)
	}
	if !sameExamples(got, want) {
		t.Fatal("resumed examples differ from an uninterrupted pass")
	}
}

// TestPerRecordFilesStillHit: a cache holding one record file per program,
// as core.AnalyzeCached stores them for serving and the study path, and as
// caches written before packs hold them, serves a shard with no
// interpreter run; the pass then stores the shard's pack, and the pass
// after that does no work.
func TestPerRecordFilesStillHit(t *testing.T) {
	entries := gencorpus.Spec{Seed: 47, N: 5}.Entries()
	cache := openCache(t, t.TempDir())
	for _, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.AnalyzeCached(cache, prog, e.Language, e.RunConfig()); err != nil {
			t.Fatal(err)
		}
	}
	want := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries})
	src := &gencorpus.ShardedCorpus{Entries: entries, Cache: cache}
	before := snapshot()
	got := examplesOf(t, src)
	if w := before.since(); w.runs != 0 {
		t.Errorf("pass over per-record files ran the interpreter %d times; want none", w.runs)
	}
	if !sameExamples(got, want) {
		t.Fatal("examples from per-record files differ")
	}
	readFile(t, packPath(t, cache, entries))
	before = snapshot()
	examplesOf(t, src)
	if w := before.since(); w != (work{}) {
		t.Errorf("pass after the pack was stored did work: %+v", w)
	}
}

// TestColdPassFileCount: a cold pass creates two files per shard, its pack
// and its index entry, and no file per program.
func TestColdPassFileCount(t *testing.T) {
	entries := gencorpus.Spec{Seed: 43, N: 10}.Entries()
	for _, size := range []int{1, 3, 4, 10, 64} {
		dir := t.TempDir()
		examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Size: size, Cache: openCache(t, dir)})
		shards := (len(entries) + size - 1) / size
		packs, _ := filepath.Glob(filepath.Join(dir, "*.espa"))
		index, _ := filepath.Glob(filepath.Join(dir, "*.espi"))
		all, _ := os.ReadDir(dir)
		if len(packs) != shards || len(index) != shards || len(all) != 2*shards {
			t.Errorf("size %d: %d packs, %d index entries, %d files; want %d, %d and %d",
				size, len(packs), len(index), len(all), shards, shards, 2*shards)
		}
		for _, p := range packs {
			if !bytes.HasPrefix(readFile(t, p), []byte("ESPK")) {
				t.Errorf("size %d: %s is not a pack", size, filepath.Base(p))
			}
		}
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
// all return the examples of a clean cold pass. The faulted passes use
// two-program shards, so each pass stores several packs and index entries.
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
			if got := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Size: 2, Cache: cache}); !sameExamples(got, want) {
				deactivate()
				t.Fatalf("seed %d pass %d under faults: examples differ", seed, pass)
			}
		}
		deactivate()
		if inj.Fired("artifact.load") == 0 || inj.Fired("artifact.store") == 0 {
			t.Errorf("seed %d: faults fired %d loads, %d stores; want both", seed,
				inj.Fired("artifact.load"), inj.Fired("artifact.store"))
		}
		if got := examplesOf(t, &gencorpus.ShardedCorpus{Entries: entries, Size: 2, Cache: cache}); !sameExamples(got, want) {
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
		if !sameExamples(core.LinkedExamples(nil, rec.Vectors, rec.Profile), want) {
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

// TestColdExamplesMatchFullAnalysis is the oracle of the one example
// builder every pass shares (core.LinkedExamples over a record): for every
// corpus program and a generated program of every mix, a cold pass, with a
// cache and without, yields the site-keyed examples of a full analysis of
// the same program with its library image unshared, bit for bit.
func TestColdExamplesMatchFullAnalysis(t *testing.T) {
	entries := corpus.All()
	for _, m := range gencorpus.AllMixes() {
		entries = append(entries, gencorpus.Spec{Seed: 31, N: 1, Mixes: []gencorpus.Mix{m}}.Entries()...)
	}
	if len(entries) != 46+len(gencorpus.AllMixes()) {
		t.Fatalf("checking %d programs, want the 46 corpus programs and one per mix", len(entries))
	}
	want := make([][]core.Example, len(entries))
	for i, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Image == nil {
			t.Fatalf("%s: not linked against the runtime library", e.Name)
		}
		prog.Unshare()
		pd, err := core.Analyze(prog, e.Language, e.RunConfig())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sitesExamples(pd)
	}
	for _, cache := range []*artifact.Cache{nil, openCache(t, t.TempDir())} {
		src := &gencorpus.ShardedCorpus{Entries: entries, Size: 1, Cache: cache}
		for i, e := range entries {
			got, err := src.Load(i)
			if err != nil {
				t.Fatal(err)
			}
			if !sameExamples(got, want[i]) {
				t.Errorf("%s (cache %v): cold examples differ from the full analysis's", e.Name, cache != nil)
			}
		}
	}
}
