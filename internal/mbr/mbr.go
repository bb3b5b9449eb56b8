// Package mbr implements memory-based reasoning — the second alternative
// classifier the paper names in Section 6: "We are also interested in
// seeing how effective other classification techniques, such as
// memory-based reasoning or decision trees, will be for ESP prediction."
//
// The memory is simply the corpus itself: every training branch is stored
// with its feature values, taken-probability, and normalized execution
// weight. A query branch is matched against the memory by weighted feature
// overlap (a Hamming-style similarity over the categorical features, with
// per-feature weights learned from how informative each feature is on the
// corpus), and the prediction is the weight-blended taken-probability of
// the K most similar memories.
package mbr

import (
	"math"
	"sort"

	"repro/internal/features"
)

// Example is one stored memory: a branch's features and dynamic behaviour.
type Example struct {
	Values [features.NumFeatures]string
	// Target is the branch's observed taken-probability.
	Target float64
	// Weight is the branch's normalized execution weight n_k.
	Weight float64
}

// Config parameterizes the model.
type Config struct {
	// K is the neighborhood size (default 9).
	K int
	// InformationWeights enables per-feature weights derived from each
	// feature's information gain on the memory (default on via NewModel).
	InformationWeights bool
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 9
	}
	return c
}

// Model is a trained memory-based reasoner.
type Model struct {
	Cfg    Config                        `json:"cfg"`
	Memory []Example                     `json:"memory"`
	FeatW  [features.NumFeatures]float64 `json:"featw"`
	// Prior is the weighted mean taken-probability, used when the memory
	// is empty.
	Prior float64 `json:"prior"`
}

// New builds a model from training examples.
func New(examples []Example, cfg Config) *Model {
	cfg = cfg.withDefaults()
	m := &Model{Cfg: cfg, Memory: examples, Prior: 0.5}
	var wsum, tsum float64
	for _, e := range examples {
		wsum += e.Weight
		tsum += float64(e.Weight * e.Target)
	}
	if wsum > 0 {
		m.Prior = tsum / wsum
	}
	for f := range m.FeatW {
		m.FeatW[f] = 1
	}
	if cfg.InformationWeights {
		m.computeInformationWeights()
	}
	return m
}

// computeInformationWeights sets each feature's weight to its information
// gain about the (thresholded) branch direction over the memory, so that
// uninformative features do not dilute the similarity measure — the
// memory-based analog of the paper's "the neural net ... is capable of
// ignoring information that is irrelevant".
func (m *Model) computeInformationWeights() {
	var wTaken, wNot float64
	for _, e := range m.Memory {
		wTaken += float64(e.Weight * e.Target)
		wNot += float64(e.Weight * (1 - e.Target))
	}
	if wTaken+wNot <= 0 {
		// A weightless memory carries no measurable information; keep the
		// uniform weights rather than dividing by the zero total below.
		return
	}
	base := entropy(wTaken, wNot)
	for f := 0; f < features.NumFeatures; f++ {
		type bucket struct{ taken, not float64 }
		buckets := make(map[string]*bucket)
		for _, e := range m.Memory {
			b := buckets[e.Values[f]]
			if b == nil {
				b = &bucket{}
				buckets[e.Values[f]] = b
			}
			b.taken += float64(e.Weight * e.Target)
			b.not += float64(e.Weight * (1 - e.Target))
		}
		var cond float64
		total := wTaken + wNot
		for _, b := range buckets {
			share := (b.taken + b.not) / total
			cond += float64(share * entropy(b.taken, b.not))
		}
		gain := base - cond
		if gain < 0 {
			gain = 0
		}
		// Floor keeps every feature minimally active so ties break sanely.
		m.FeatW[f] = 0.05 + gain
	}
}

func entropy(a, b float64) float64 {
	total := a + b
	if total <= 0 {
		return 0
	}
	e := 0.0
	for _, x := range [2]float64{a, b} {
		if x > 0 {
			p := x / total
			e -= float64(p * math.Log(p))
		}
	}
	return e
}

// Similarity returns the weighted feature-overlap between a query and a
// memory (higher is more similar). Unknown values never match.
func (m *Model) Similarity(query, memory [features.NumFeatures]string) float64 {
	var s float64
	for f := 0; f < features.NumFeatures; f++ {
		if query[f] == features.Unknown || memory[f] == features.Unknown {
			continue
		}
		if query[f] == memory[f] {
			s += m.FeatW[f]
		}
	}
	return s
}

// Predict returns the estimated taken-probability for a feature vector: the
// execution-weight-blended target of the K most similar memories.
func (m *Model) Predict(values [features.NumFeatures]string) float64 {
	if len(m.Memory) == 0 {
		return m.Prior
	}
	type scored struct {
		sim float64
		idx int
	}
	top := make([]scored, 0, m.Cfg.K+1)
	for i := range m.Memory {
		sim := m.Similarity(values, m.Memory[i].Values)
		if len(top) < m.Cfg.K {
			top = append(top, scored{sim, i})
			sort.Slice(top, func(a, b int) bool { return top[a].sim > top[b].sim })
			continue
		}
		if sim > top[len(top)-1].sim {
			top[len(top)-1] = scored{sim, i}
			sort.Slice(top, func(a, b int) bool { return top[a].sim > top[b].sim })
		}
	}
	var wsum, tsum float64
	for _, sc := range top {
		e := m.Memory[sc.idx]
		// Blend by execution weight and similarity so hot, close memories
		// dominate.
		w := float64((e.Weight + 1e-6) * (sc.sim + 1e-6))
		wsum += w
		tsum += float64(w * e.Target)
	}
	if wsum == 0 {
		return m.Prior
	}
	return tsum / wsum
}

// Size returns the number of stored memories.
func (m *Model) Size() int { return len(m.Memory) }
