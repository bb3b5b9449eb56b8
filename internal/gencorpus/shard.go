package gencorpus

import (
	"slices"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/ir"
	"repro/internal/par"
)

// ShardedCorpus feeds a corpus through the standard analysis pipeline —
// Entry.Compile, then the cached profile/featurize path — on a worker pool,
// so a model can train on thousands of generated programs. Load returns one
// fixed-size shard's training examples; Examples loads every shard in turn
// and returns the whole corpus's.
//
// With a Cache, the shard is the unit of caching: a shard's records live in
// one artifact pack, and one source-index entry, keyed by
// artifact.IndexKey over the shard's names, languages, sources, target and
// run configs and the running binary's identity, lists each program's
// record key and site count. A cold shard creates those two files; a warm
// shard reads them and builds the examples from the records alone — no
// compile, no site collection, no interpreter run. An entry whose hint does
// not check out (a damaged or evicted pack frame, a record of the wrong
// site count) takes the full path. Without a usable index entry (none, a
// damaged one, another binary's, or the index off because the running
// binary cannot be read) every entry of the shard compiles and keys first,
// and the pack those keys name still serves each record it holds; a record
// stored on its own by another caller serves too. After the shard, the
// pack and the index entry are rewritten only if what the shard found
// differs from what they held.
//
// Determinism: per-entry analysis is a pure function of (entry, target), and
// although entries analyze in parallel, the returned examples are assembled
// in entry order — so both methods are bit-identical across runs, worker
// counts, and cache temperature. A killed training run resumes by running
// again against the same Cache: every finished shard is a cache hit, so the
// kill loses at most the shard in flight.
type ShardedCorpus struct {
	// Entries is the corpus in training order (e.g. Spec.Entries()).
	Entries []corpus.Entry
	// Size is the shard size in programs that Load partitions Entries by
	// (default 64). A shard is the unit of caching and of resume: its
	// records are stored together once it finishes.
	Size int
	// Cache, when non-nil, backs analysis with the content-addressed
	// artifact cache and its source index: a warm run compiles nothing,
	// collects no sites and does zero interpreter traces.
	Cache *artifact.Cache
	// Target selects the compilation target (default codegen.Default).
	Target codegen.Target
}

func (c *ShardedCorpus) target() codegen.Target {
	if c.Target == (codegen.Target{}) {
		return codegen.Default
	}
	return c.Target
}

func (c *ShardedCorpus) size() int {
	if c.Size <= 0 {
		return 64
	}
	return c.Size
}

// Examples analyzes every shard in order, as Load(0) through the last
// would, and returns the pooled training examples in entry order, copied
// once into a slice of exactly their number.
func (c *ShardedCorpus) Examples() ([]core.Example, error) {
	var parts [][]core.Example
	for i := 0; i*c.size() < len(c.Entries); i++ {
		ex, err := c.analyze(c.shard(i))
		if err != nil {
			return nil, err
		}
		parts = append(parts, ex...)
	}
	return concat(parts), nil
}

// concat joins example slices into one of exactly their total length.
func concat(parts [][]core.Example) []core.Example {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]core.Example, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Load compiles and analyzes every entry of shard i (in parallel, through
// the artifact cache) and returns the pooled training examples in entry
// order.
func (c *ShardedCorpus) Load(i int) ([]core.Example, error) {
	ex, err := c.analyze(c.shard(i))
	if err != nil {
		return nil, err
	}
	return concat(ex), nil
}

// shard returns the entries of shard i.
func (c *ShardedCorpus) shard(i int) []corpus.Entry {
	lo := i * c.size()
	return c.Entries[lo:min(lo+c.size(), len(c.Entries))]
}

// analyzed is what one entry of a shard contributes.
type analyzed struct {
	examples []core.Example
	index    artifact.IndexEntry
	// frame is the entry's record as a pack frame; packed says it is the
	// loaded pack's own frame for the entry.
	frame  []byte
	packed bool
}

// analyze runs one shard's entries on GOMAXPROCS workers (par.For) and
// returns each entry's examples, in entry order. With a cache, the shard's
// index entry (when the binary is readable) and pack serve what they can;
// once all entries are done, the pack and then the index entry are
// rewritten if what the entries found differs from what was read.
func (c *ShardedCorpus) analyze(entries []corpus.Entry) ([][]core.Example, error) {
	tgt := c.target()
	var ixKey string
	var hints []artifact.IndexEntry
	if id := binaryIdentity(); c.Cache != nil && id != nil {
		srcs := make([]artifact.Source, len(entries))
		for j, e := range entries {
			srcs[j] = artifact.Source{Name: e.Name, Language: e.Language, Target: tgt,
				Run: e.RunConfig(), Text: e.Source}
		}
		ixKey = artifact.IndexKey(id, srcs)
		hints, _ = c.Cache.LoadIndex(ixKey, len(entries))
	}
	progs := make([]*ir.Program, len(entries))
	keys := make([]string, len(entries))
	var pack *artifact.Pack
	switch {
	case hints != nil:
		for j, h := range hints {
			keys[j] = h.IRKey
		}
		pack, _ = c.Cache.LoadPack(artifact.PackKey(keys))
	case c.Cache != nil:
		// No index entry: the pack is named by the records' keys, so key
		// every entry before looking it up.
		err := par.For(0, len(entries), func(j int) error {
			prog, err := entries[j].Compile(tgt)
			progs[j], keys[j] = prog, artifact.Key(prog, entries[j].RunConfig())
			return err
		})
		if err != nil {
			return nil, err
		}
		pack, _ = c.Cache.LoadPack(artifact.PackKey(keys))
	}

	res := make([]analyzed, len(entries))
	err := par.For(0, len(entries), func(j int) error {
		var hint artifact.IndexEntry
		if hints != nil {
			hint = hints[j]
		}
		prog := progs[j]
		progs[j] = nil
		var err error
		res[j], err = c.entry(entries[j], tgt, j, hint, pack, prog, keys[j])
		return err
	})
	if err != nil {
		return nil, err
	}
	rewrite, complete := false, true
	examples := make([][]core.Example, len(res))
	frames := make([][]byte, len(res))
	index := make([]artifact.IndexEntry, len(res))
	for j, r := range res {
		examples[j] = r.examples
		rewrite = rewrite || !r.packed
		complete = complete && r.frame != nil
		frames[j], index[j], keys[j] = r.frame, r.index, r.index.IRKey
	}
	// Best effort, like every cache store: a lost pack costs the next pass
	// the shard's interpreter runs, a lost index entry its front ends.
	if c.Cache != nil && rewrite && complete {
		_ = c.Cache.StorePack(keys, frames)
	}
	if ixKey != "" && !slices.Equal(index, hints) {
		_ = c.Cache.StoreIndex(ixKey, index)
	}
	return examples, nil
}

// binaryIdentity is artifact.BinaryIdentity; tests substitute another
// binary's.
var binaryIdentity = artifact.BinaryIdentity

// entry analyzes entry j of a shard. When pack holds the record hint names
// (a zero hint names none) with the hinted site count, the examples come
// from that record alone. Otherwise the entry compiles, unless prog is
// already its compiled program under key, and analyzes through the cache,
// which serves the pack's frame for the entry first.
func (c *ShardedCorpus) entry(e corpus.Entry, tgt codegen.Target, j int, hint artifact.IndexEntry, pack *artifact.Pack, prog *ir.Program, key string) (analyzed, error) {
	if rec, frame, ok := pack.Record(j, hint.IRKey); ok {
		// The record of a linked program merges its own vectors with those
		// of the runtime library image the entry links, which this builds
		// once per process without compiling a program; no image means a
		// miss. Only the executed sites' vectors are copied.
		img, _ := corpus.LibraryImage(e.Language, tgt)
		if lib, ok := rec.ImageFor(img); ok && features.NumLinked(lib, rec.Vectors) == hint.Sites {
			return analyzed{core.LinkedExamples(lib, rec.Vectors, rec.Profile), hint, frame, true}, nil
		}
	}
	if prog == nil {
		var err error
		if prog, err = e.Compile(tgt); err != nil {
			return analyzed{}, err
		}
		if c.Cache == nil {
			pd, err := core.Analyze(prog, e.Language, e.RunConfig())
			if err != nil {
				return analyzed{}, err
			}
			return analyzed{examples: pd.Examples()}, nil
		}
		key = artifact.Key(prog, e.RunConfig())
	}
	pc := &packCache{Cache: c.Cache, pack: pack, j: j}
	pd, err := core.AnalyzeCachedKey(pc, key, prog, e.Language, e.RunConfig())
	if err != nil {
		return analyzed{}, err
	}
	packed := pc.frame != nil
	if !packed {
		// Encoding fails only for a record Store would refuse too; the
		// shard then keeps its old pack.
		pc.frame, _ = artifact.Frame(key, pc.rec)
	}
	return analyzed{pd.Examples(), artifact.IndexEntry{IRKey: key, Sites: len(pd.Sites.Sites)}, pc.frame, packed}, nil
}

// packCache is the core.AnalysisCache of entry j of a shard. It serves the
// record from the shard's pack, falling back to a record file of its own
// (an older cache's, or one another caller stored), and captures the
// record AnalyzeCached would store instead of writing it: the shard stores
// every record in its pack.
type packCache struct {
	*artifact.Cache
	pack *artifact.Pack
	j    int

	rec   *artifact.Record // the record the entry's analysis rests on
	frame []byte           // rec's pack frame, when the pack served it
}

func (p *packCache) Load(key string) (*artifact.Record, bool) {
	if rec, frame, ok := p.pack.Record(p.j, key); ok {
		p.rec, p.frame = rec, frame
		return rec, true
	}
	rec, ok := p.Cache.Load(key)
	p.rec = rec
	return rec, ok
}

func (p *packCache) Store(_ string, rec *artifact.Record) error {
	p.rec, p.frame = rec, nil
	return nil
}
