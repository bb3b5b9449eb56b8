package gencorpus

import (
	"slices"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/par"
)

// ShardedCorpus feeds a corpus through the standard analysis pipeline —
// Entry.Compile, then the cached profile/featurize path — on a worker pool,
// so a model can train on thousands of generated programs. Examples returns
// the whole corpus's training examples; Load returns one fixed-size shard's.
//
// With a Cache, a warm pass reads one source-index entry and then one
// record per program: the index entry, keyed by artifact.IndexKey over the
// analyzed entries' names, languages, sources, target and run configs and
// the running binary's identity, names each program's record and site
// count, and the examples are built from the record alone — no compile, no
// site collection, no interpreter run. An entry whose hint does not check
// out (no index entry, a damaged one, an evicted or damaged record, a
// record of the wrong site count) takes the full path, which stores its
// record, and after the pass the index entry is rewritten if it no longer
// lists what the entries found. Each call to
// Load or Examples is one index entry. When the running binary cannot be
// read, the index is off and every entry takes the full path.
//
// Determinism: per-entry analysis is a pure function of (entry, target), and
// although entries analyze in parallel, the returned examples are assembled
// in entry order — so both methods are bit-identical across runs, worker
// counts, and cache temperature. A killed training run resumes by running
// again against the same Cache: finished analyses are cache hits.
type ShardedCorpus struct {
	// Entries is the corpus in training order (e.g. Spec.Entries()).
	Entries []corpus.Entry
	// Size is the shard size in programs that Load partitions Entries by
	// (default 64).
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

// Examples compiles and analyzes every entry (in parallel, through the
// artifact cache) and returns the pooled training examples in entry order.
func (c *ShardedCorpus) Examples() ([]core.Example, error) {
	return c.analyze(c.Entries)
}

// Load compiles and analyzes every entry of shard i (in parallel, through
// the artifact cache) and returns the pooled training examples in entry
// order.
func (c *ShardedCorpus) Load(i int) ([]core.Example, error) {
	lo := i * c.size()
	return c.analyze(c.Entries[lo:min(lo+c.size(), len(c.Entries))])
}

// analyze runs entries on GOMAXPROCS workers (par.For) and concatenates
// their examples in entry order. With a cache and a readable binary, the
// entries' source index entry, when present, lets each entry skip its
// front end; once all are done, the index entry is rewritten if what the
// entries found differs from what it listed.
func (c *ShardedCorpus) analyze(entries []corpus.Entry) ([]core.Example, error) {
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
	perEntry := make([][]core.Example, len(entries))
	index := make([]artifact.IndexEntry, len(entries))
	err := par.For(0, len(entries), func(j int) error {
		var hint artifact.IndexEntry
		if hints != nil {
			hint = hints[j]
		}
		var err error
		perEntry[j], index[j], err = c.examples(entries[j], tgt, hint)
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []core.Example
	for _, ex := range perEntry {
		out = append(out, ex...)
	}
	if ixKey != "" && !slices.Equal(index, hints) {
		// Best effort, like the records' own stores: a lost index entry
		// costs only the next run's front ends.
		_ = c.Cache.StoreIndex(ixKey, index)
	}
	return out, nil
}

// binaryIdentity is artifact.BinaryIdentity; tests substitute another
// binary's.
var binaryIdentity = artifact.BinaryIdentity

// examples returns one entry's training examples and its index entry.
// When the cache holds hint's record (a zero hint names none) with the
// hinted site count, the examples come from that record alone; otherwise
// the entry compiles and analyzes through the cache.
func (c *ShardedCorpus) examples(e corpus.Entry, tgt codegen.Target, hint artifact.IndexEntry) ([]core.Example, artifact.IndexEntry, error) {
	if hint.IRKey != "" {
		if rec, ok := c.Cache.Load(hint.IRKey); ok {
			// The record of a linked program splices in the runtime library
			// image the entry links, which this builds once per process
			// without compiling a program; no image means a miss.
			img, _ := corpus.LibraryImage(e.Language, tgt)
			if vecs, ok := rec.VectorsFor(img); ok && len(vecs) == hint.Sites {
				return core.ExamplesOf(vecs, rec.Profile), hint, nil
			}
		}
	}
	prog, err := e.Compile(tgt)
	if err != nil {
		return nil, artifact.IndexEntry{}, err
	}
	kc := &keyedCache{Cache: c.Cache}
	pd, err := core.AnalyzeCached(kc, prog, e.Language, e.RunConfig())
	if err != nil {
		return nil, artifact.IndexEntry{}, err
	}
	return pd.Examples(), artifact.IndexEntry{IRKey: kc.key, Sites: len(pd.Sites.Sites)}, nil
}

// keyedCache is a cache as core.AnalysisCache that remembers the record
// key AnalyzeCached looks up, so indexing a program does not hash its IR a
// second time.
type keyedCache struct {
	*artifact.Cache
	key string
}

func (k *keyedCache) Load(key string) (*artifact.Record, bool) {
	k.key = key
	return k.Cache.Load(key)
}
