package gencorpus

import (
	"runtime"
	"sync"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
)

// ShardedCorpus feeds a corpus through the standard analysis pipeline —
// Entry.Compile, then the cached profile/featurize path — on a worker pool,
// so a model can train on thousands of generated programs. Examples returns
// the whole corpus's training examples; Load returns one fixed-size shard's.
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
	// artifact cache: a warm run does zero interpreter traces.
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

// analyze runs entries on GOMAXPROCS workers and concatenates their
// examples in entry order.
func (c *ShardedCorpus) analyze(entries []corpus.Entry) ([]core.Example, error) {
	tgt := c.target()
	perEntry := make([][]core.Example, len(entries))
	errs := make([]error, len(entries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(entries) {
		workers = len(entries)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				e := entries[j]
				prog, err := e.Compile(tgt)
				if err != nil {
					errs[j] = err
					continue
				}
				pd, err := core.AnalyzeCached(c.Cache, prog, e.Language, e.RunConfig())
				if err != nil {
					errs[j] = err
					continue
				}
				perEntry[j] = pd.Examples()
			}
		}()
	}
	for j := range entries {
		next <- j
	}
	close(next)
	wg.Wait()
	var out []core.Example
	for j := range entries {
		if errs[j] != nil {
			return nil, errs[j]
		}
		out = append(out, perEntry[j]...)
	}
	return out, nil
}
