package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/interp"
	"repro/internal/minic"
)

// timedCache is an artifact cache as core.AnalysisCache that times each
// Load and Store as an artifact span and counts hits and misses.
type timedCache struct {
	cache *artifact.Cache
	l     *layers
}

func (c timedCache) Load(key string) (*artifact.Record, bool) {
	t := time.Now()
	rec, ok := c.cache.Load(key)
	c.l.span("artifact.load", t)
	if ok {
		c.l.count("artifact.hits", 1)
	} else {
		c.l.count("artifact.misses", 1)
	}
	return rec, ok
}

func (c timedCache) Store(key string, rec *artifact.Record) error {
	t := time.Now()
	err := c.cache.Store(key, rec)
	c.l.span("artifact.store", t)
	return err
}

// analyze compiles and analyzes one corpus entry. Untraced, it is exactly
// the production path of `esptool train` and `espserve -train`:
// Entry.Compile, then core.AnalyzeCached. Traced, it makes the same public
// calls one at a time, in the order AnalyzeCached makes them, and times each
// one, with cache reads and writes through timedCache. It is a copy of
// AnalyzeCached's sequence, kept only to time the interpreter apart from
// feature extraction, and must track AnalyzeCached; the traced run checks
// that both forms return identical analyses.
func analyze(l *layers, cache *artifact.Cache, e corpus.Entry) (*core.ProgramData, error) {
	if l == nil {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			return nil, err
		}
		return core.AnalyzeCached(cache, prog, e.Language, e.RunConfig())
	}

	src := e.Source + corpus.StdlibSource + corpus.Stdlib2Source
	t := time.Now()
	ast, err := minic.Parse(e.Name, src)
	l.span("minic.parse", t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	l.count("minic.parse.calls", 1)
	l.count("minic.parse.bytes", float64(len(src)))

	t = time.Now()
	prog, err := codegen.Compile(ast, e.Language, codegen.Default)
	l.span("codegen.compile", t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	l.count("codegen.compile.calls", 1)
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			l.count("codegen.ir_insns", float64(len(b.Insns)))
		}
	}

	runCfg := e.RunConfig()
	t = time.Now()
	key := artifact.Key(prog, runCfg)
	l.span("artifact.key", t)

	tc := timedCache{cache, l}
	if rec, ok := tc.Load(key); ok {
		t = time.Now()
		ps := features.Collect(prog)
		l.span("features.collect", t)
		l.count("features.sites", float64(len(ps.Sites)))
		if len(rec.Vectors) == len(ps.Sites) {
			return &core.ProgramData{Name: prog.Name, Language: e.Language, Prog: prog,
				Sites: ps, Vectors: rec.Vectors, Profile: rec.Profile}, nil
		}
	}

	t = time.Now()
	prof, err := interp.Run(prog, runCfg)
	l.span("interp.run", t)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", prog.Name, err)
	}
	l.count("interp.runs", 1)
	l.count("interp.insns", float64(prof.Insns))

	t = time.Now()
	ps := features.Collect(prog)
	l.span("features.collect", t)
	l.count("features.sites", float64(len(ps.Sites)))

	t = time.Now()
	vecs := features.ExtractAll(ps)
	l.span("features.extract", t)

	// Best effort, as in AnalyzeCached: a failed store costs only the warm
	// start.
	_ = tc.Store(key, &artifact.Record{Profile: prof, Vectors: vecs})

	return &core.ProgramData{Name: prog.Name, Language: e.Language, Prog: prog,
		Sites: ps, Vectors: vecs, Profile: prof}, nil
}

// analyzeAll analyzes entries in order on one goroutine, the study path.
// It returns the analyses and the pass's wall time.
func analyzeAll(l *layers, cache *artifact.Cache, entries []corpus.Entry) ([]*core.ProgramData, time.Duration, error) {
	start := time.Now()
	out := make([]*core.ProgramData, len(entries))
	for i, e := range entries {
		pd, err := analyze(l, cache, e)
		if err != nil {
			return nil, 0, err
		}
		out[i] = pd
	}
	wall := time.Since(start)
	l.addBase(wall)
	return out, wall, nil
}

// shardSize matches gencorpus.ShardedCorpus's default shard size.
const shardSize = 64

// loadShards runs every shard of a generated corpus through the parallel
// analysis of `esptool train -gen` and returns the pooled examples in entry
// order with the pass's wall time. Untraced, it calls
// gencorpus.ShardedCorpus.Load; traced, it repeats that method's shape
// (GOMAXPROCS workers per shard, results in entry order) around the traced
// analyze.
func loadShards(l *layers, cache *artifact.Cache, src *gencorpus.ShardedCorpus, entries []corpus.Entry) ([]core.Example, time.Duration, error) {
	start := time.Now()
	var out []core.Example
	for lo := 0; lo < len(entries); lo += shardSize {
		var ex []core.Example
		var err error
		if l == nil {
			ex, err = src.Load(lo / shardSize)
		} else {
			ex, err = tracedShard(l, cache, entries[lo:min(lo+shardSize, len(entries))])
		}
		if err != nil {
			return nil, 0, err
		}
		out = append(out, ex...)
	}
	return out, time.Since(start), nil
}

// tracedShard analyzes one shard on GOMAXPROCS workers. Each worker's wall
// time is the base its spans must account for.
func tracedShard(l *layers, cache *artifact.Cache, entries []corpus.Entry) ([]core.Example, error) {
	perEntry := make([][]core.Example, len(entries))
	errs := make([]error, len(entries))
	workers := min(runtime.GOMAXPROCS(0), len(entries))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for j := range next {
				pd, err := analyze(l, cache, entries[j])
				if err != nil {
					errs[j] = err
					continue
				}
				perEntry[j] = pd.Examples()
			}
			l.addBase(time.Since(start))
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

// examplesOf pools the training examples of analyzed programs.
func examplesOf(data []*core.ProgramData) []core.Example {
	var out []core.Example
	for _, pd := range data {
		out = append(out, pd.Examples()...)
	}
	return out
}

// predictMiss predicts every example's branch with the model and returns
// the execution-weighted miss rate in percent. Example weights are
// normalized per program, so this is the mean of the programs' miss rates,
// the paper's measure.
func predictMiss(l *layers, m *core.Model, ex []core.Example) float64 {
	vecs := make([]features.Vector, len(ex))
	for i := range ex {
		vecs[i] = ex[i].Vector
	}
	probs := make([]float64, len(vecs))
	t := time.Now()
	m.TakenProbabilities(vecs, probs)
	l.phase("core.predict", t)
	l.count("core.predict.vectors", float64(len(vecs)))
	var miss, weight float64
	for i, e := range ex {
		if probs[i] > 0.5 {
			miss += e.Weight * (1 - e.Target)
		} else {
			miss += e.Weight * e.Target
		}
		weight += e.Weight
	}
	if weight == 0 {
		return 0
	}
	return 100 * miss / weight
}

// digestPrograms hashes everything an analysis produced — each site's
// reference, feature vector and profile counts, and the run's totals — so
// two passes can be compared bit for bit.
func digestPrograms(data []*core.ProgramData) [32]byte {
	h := sha256.New()
	for _, pd := range data {
		fmt.Fprintf(h, "%s\x00%d %d %d %d\n", pd.Name, pd.Profile.Insns, pd.Profile.Result,
			pd.Profile.CondExec, pd.Profile.CondTaken)
		for i, s := range pd.Sites.Sites {
			fmt.Fprintf(h, "%s", s.Ref)
			writeVector(h, pd.Vectors[i])
			if c := pd.Profile.Branches[s.Ref]; c != nil {
				fmt.Fprintf(h, " %d %d", c.Executed, c.Taken)
			}
			h.Write([]byte{'\n'})
		}
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// digestExamples hashes training examples bit for bit.
func digestExamples(ex []core.Example) [32]byte {
	h := sha256.New()
	var b [16]byte
	for _, e := range ex {
		writeVector(h, e.Vector)
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(e.Target))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.Weight))
		h.Write(b[:])
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func writeVector(w io.Writer, v features.Vector) {
	for _, s := range v.Values {
		io.WriteString(w, s)
		w.Write([]byte{0})
	}
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
