// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables 1-7, Figures 1-2, the Section 3.1.2 Scheme
// study, and the corpus-size observation of Section 3.1.2), plus the
// ablation studies listed in DESIGN.md. Each driver returns the rendered
// table and a structured result that the benchmarks and tests assert on.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/par"
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
	// trained memoizes training per defaulted ESP configuration and
	// program group, so the studies that share a context train each model
	// once.
	trained map[string]*trainedState
}

type entryState struct {
	once sync.Once
	pd   *core.ProgramData
	err  error
}

// trainedState is one memoized training result: a fold set or a model.
type trainedState struct {
	once sync.Once
	val  any
}

// NewContext returns an empty in-process cache with no persistent backing.
func NewContext() *Context {
	return &Context{data: make(map[string]*entryState), trained: make(map[string]*trainedState)}
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

// Batch analyzes a set of entries under one target, in parallel on
// GOMAXPROCS workers: profiling is CPU-bound, so more goroutines than
// processors only adds scheduling and memory pressure.
func (c *Context) Batch(entries []corpus.Entry, tgt codegen.Target) ([]*core.ProgramData, error) {
	out := make([]*core.ProgramData, len(entries))
	err := par.For(0, len(entries), func(i int) error {
		var err error
		if out[i], err = c.Data(entries[i], tgt); err != nil {
			return fmt.Errorf("experiments: %s: %w", entries[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
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

// memoTrain returns train's result, computed once per context, kind,
// defaulted configuration, and group (by program name, in order). Every
// group comes from the context under codegen.Default, so the names fix
// the data. Callers only read the result, which is safe for concurrent use.
func memoTrain[T any](c *Context, kind string, group []*core.ProgramData, cfg core.Config, train func() T) T {
	key := kind + "\x00" + fmt.Sprintf("%#v", cfg.Defaulted())
	for _, pd := range group {
		key += "\x00" + pd.Name
	}
	c.mu.Lock()
	st := c.trained[key]
	if st == nil {
		st = &trainedState{}
		c.trained[key] = st
	}
	c.mu.Unlock()
	st.once.Do(func() { st.val = train() })
	return st.val.(T)
}

// looFolds returns the leave-one-out folds of group (core.CrossValidate):
// fold i holds group[i] out and carries the model trained on the rest.
func (c *Context) looFolds(group []*core.ProgramData, cfg core.Config) []core.FoldResult {
	return memoTrain(c, "loo", group, cfg, func() []core.FoldResult { return core.CrossValidate(group, cfg) })
}

// studyFolds returns the C and Fortran groups' programs and their
// leave-one-out folds, fold i holding data[i] out: the paper's Table 4
// protocol, which validates within each language group.
func (c *Context) studyFolds(cfg core.Config) ([]*core.ProgramData, []core.FoldResult, error) {
	var data []*core.ProgramData
	var folds []core.FoldResult
	for _, lang := range []ir.Language{ir.LangC, ir.LangFortran} {
		group, err := c.LanguageData(lang, codegen.Default)
		if err != nil {
			return nil, nil, err
		}
		data = append(data, group...)
		folds = append(folds, c.looFolds(group, cfg)...)
	}
	return data, folds, nil
}
