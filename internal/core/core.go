// Package core implements ESP — evidence-based static prediction — the
// paper's primary contribution. A corpus of programs is compiled, executed
// to collect per-branch dynamic behaviour, and reduced to (static feature
// set, branch probability, normalized branch weight) triples; a classifier
// (the Section 3.1.1 neural network, or the Section 3.1.2 decision tree)
// maps static features to a taken-probability; and new programs are
// predicted from their static features alone.
package core

import (
	"fmt"
	"sync"

	"repro/internal/artifact"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
)

// ProgramData bundles everything ESP knows about one program: the compiled
// IR, the analyzed branch sites, the Table 2 feature vectors, and the
// dynamic profile from one profiling run.
type ProgramData struct {
	Name     string
	Language ir.Language
	Prog     *ir.Program
	Sites    *features.ProgramSites
	Vectors  []features.Vector
	Profile  *interp.Profile

	evOnce   sync.Once
	evidence []heuristics.Evidence
}

// Evidence returns the heuristic evidence of every site, in the order of
// Vectors. It is computed from Sites on first use, once per program, and
// is safe for concurrent use; analysis never computes it.
func (pd *ProgramData) Evidence() []heuristics.Evidence {
	pd.evOnce.Do(func() { pd.evidence = heuristics.EvidenceOf(pd.Sites) })
	return pd.evidence
}

// Analyze runs a compiled program under the given interpreter configuration
// and extracts its branch sites and static features.
func Analyze(prog *ir.Program, lang ir.Language, runCfg interp.Config) (*ProgramData, error) {
	prof, err := interp.Run(prog, runCfg)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", prog.Name, err)
	}
	ps := features.Collect(prog)
	return &ProgramData{
		Name:     prog.Name,
		Language: lang,
		Prog:     prog,
		Sites:    ps,
		Vectors:  features.ExtractAll(ps),
		Profile:  prof,
	}, nil
}

// AnalysisCache is the load/store surface AnalyzeCached needs. A plain
// *artifact.Cache satisfies it (including a typed nil, whose methods
// degrade to miss/no-op); internal/cluster substitutes a peer-backed
// implementation that consults replica caches before a miss.
type AnalysisCache interface {
	Load(key string) (*artifact.Record, bool)
	Store(key string, rec *artifact.Record) error
}

// AnalyzeCached is Analyze backed by a persistent artifact cache: the
// expensive profiling run (and feature-vector extraction) is skipped when
// the cache holds an entry for this exact program and configuration. Site
// structures hold pointers into the live IR, so they are rebuilt from prog
// on every path; a hit is bit-identical to a fresh Analyze because both the
// profile and the vectors are pure functions of (prog, runCfg). The record
// of a program linked against a library image keeps only its own
// functions' vectors, and a hit splices the image's back in. A nil cache
// degrades to plain Analyze, and a failed store is ignored — the cache is
// an optimization, never a correctness dependency.
func AnalyzeCached(cache AnalysisCache, prog *ir.Program, lang ir.Language, runCfg interp.Config) (*ProgramData, error) {
	if cache == nil {
		return Analyze(prog, lang, runCfg)
	}
	return AnalyzeCachedKey(cache, artifact.Key(prog, runCfg), prog, lang, runCfg)
}

// AnalyzeCachedKey is AnalyzeCached for a caller that already holds
// artifact.Key(prog, runCfg), key, and a non-nil cache.
func AnalyzeCachedKey(cache AnalysisCache, key string, prog *ir.Program, lang ir.Language, runCfg interp.Config) (*ProgramData, error) {
	if rec, ok := cache.Load(key); ok {
		if vecs, ok := rec.VectorsFor(prog.Image); ok {
			ps := features.Collect(prog)
			if len(vecs) == len(ps.Sites) {
				return &ProgramData{
					Name:     prog.Name,
					Language: lang,
					Prog:     prog,
					Sites:    ps,
					Vectors:  vecs,
					Profile:  rec.Profile,
				}, nil
			}
		}
	}
	pd, err := Analyze(prog, lang, runCfg)
	if err != nil {
		return nil, err
	}
	// Best effort: a full disk or injected fault costs only the warm start.
	_ = cache.Store(key, artifact.NewRecord(prog, pd.Profile, pd.Vectors))
	return pd, nil
}

// Example is one training observation: a static feature vector with the
// branch's dynamic behaviour from the corpus.
type Example struct {
	Vector features.Vector
	// Target is t_k: the fraction of executions in which the branch was
	// taken.
	Target float64
	// Weight is n_k: the branch's executions normalized by the program's
	// total branch executions, so every corpus program contributes equal
	// total weight.
	Weight float64
}

// Examples converts a program's profile into training examples, skipping
// branches that never executed (they carry no evidence).
func (pd *ProgramData) Examples() []Example {
	return LinkedExamples(nil, pd.Vectors, pd.Profile)
}

// LinkedExamples pairs each feature vector with its branch's counts in
// prof, in site order, skipping branches that never executed: the examples
// of a program linked against img (nil for none) whose own functions'
// vectors are own, as a cached record holds them (artifact.Record.ImageFor).
// It reads only each vector's Ref, so a record yields a program's examples
// without its sites, and it never splices (features.SpliceVectors): it
// walks the vectors in site order (features.EachLinked) twice, first
// counting the executed sites, so it allocates exactly their examples and
// copies no other vector.
func LinkedExamples(img *ir.Image, own []features.Vector, prof *interp.Profile) []Example {
	n := 0
	features.EachLinked(img, own, func(v *features.Vector) {
		if c := prof.Branches[v.Ref]; c != nil && c.Executed > 0 {
			n++
		}
	})
	out := make([]Example, 0, n)
	features.EachLinked(img, own, func(v *features.Vector) {
		c := prof.Branches[v.Ref]
		if c == nil || c.Executed == 0 {
			return
		}
		// Weight is prof.NormalizedWeight(v.Ref), from the count in hand.
		var w float64
		if prof.CondExec != 0 {
			w = float64(c.Executed) / float64(prof.CondExec)
		}
		out = append(out, Example{Vector: *v, Target: c.TakenFraction(), Weight: w})
	})
	return out
}
