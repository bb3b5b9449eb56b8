// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables 1-7, Figures 1-2, the Section 3.1.2 Scheme
// study, and the corpus-size observation of Section 3.1.2), plus the
// ablation studies listed in DESIGN.md. Each driver returns the rendered
// table and a structured result that the benchmarks and tests assert on.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
)

// Context caches compiled programs, profiles, and feature extraction per
// (program, target) so the table drivers can share work. It is safe for
// concurrent use. An optional persistent artifact cache extends the
// in-process memoization across processes: analyses hit on disk instead of
// re-tracing.
type Context struct {
	mu    sync.Mutex
	data  map[string]*entryState
	cache *artifact.Cache
	// loo memoizes pgoModels per defaulted ESP configuration, so the
	// studies that share a context train the leave-one-out models once.
	loo map[string]*looState
}

type entryState struct {
	once sync.Once
	pd   *core.ProgramData
	err  error
}

// looState is one memoized pgoModels result.
type looState struct {
	once   sync.Once
	models map[string]*core.Model
	cModel *core.Model
	err    error
}

// NewContext returns an empty in-process cache with no persistent backing.
func NewContext() *Context {
	return &Context{data: make(map[string]*entryState), loo: make(map[string]*looState)}
}

// NewContextWithCache returns a context whose analyses are additionally
// backed by the given persistent cache (nil behaves like NewContext).
func NewContextWithCache(cache *artifact.Cache) *Context {
	c := NewContext()
	c.cache = cache
	return c
}

// PersistentCache returns the artifact cache backing this context (nil when
// the context is purely in-process), so drivers that stream analyses outside
// the in-process memo — the Figure 2b generated-corpus sweep — share the
// same on-disk artifacts.
func (c *Context) PersistentCache() *artifact.Cache {
	return c.cache
}

// Data compiles, profiles, and analyzes one corpus entry under a target,
// caching the result.
func (c *Context) Data(e corpus.Entry, tgt codegen.Target) (*core.ProgramData, error) {
	key := e.Name + "\x00" + tgt.Name
	c.mu.Lock()
	st := c.data[key]
	if st == nil {
		st = &entryState{}
		c.data[key] = st
	}
	c.mu.Unlock()
	st.once.Do(func() {
		prog, err := e.Compile(tgt)
		if err != nil {
			st.err = err
			return
		}
		st.pd, st.err = core.AnalyzeCached(c.cache, prog, e.Language, e.RunConfig())
	})
	return st.pd, st.err
}

// Batch analyzes a set of entries under one target, in parallel, with
// fan-out bounded to GOMAXPROCS workers: profiling is CPU-bound, so more
// goroutines than processors only adds scheduling and memory pressure.
func (c *Context) Batch(entries []corpus.Entry, tgt codegen.Target) ([]*core.ProgramData, error) {
	out := make([]*core.ProgramData, len(entries))
	errs := make([]error, len(entries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(entries) {
		workers = len(entries)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = c.Data(entries[i], tgt)
			}
		}()
	}
	for i := range entries {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", entries[i].Name, err)
		}
	}
	return out, nil
}

// StudyData analyzes the full 43-program study corpus under a target.
func (c *Context) StudyData(tgt codegen.Target) ([]*core.ProgramData, error) {
	return c.Batch(corpus.Study(), tgt)
}

// LanguageData analyzes one cross-validation language group.
func (c *Context) LanguageData(lang ir.Language, tgt codegen.Target) ([]*core.ProgramData, error) {
	return c.Batch(corpus.ByLanguage(lang), tgt)
}
