// Package dtree implements the decision-tree alternative the paper reports
// in Section 3.1.2: "preliminary results we have obtained using decision
// trees instead of neural networks are comparable to the neural net results
// presented here. Moreover, decision trees are easier to use and the
// knowledge they encode can be automatically translated into simple if-then
// rules."
//
// Trees are built over the same 24 categorical static features, splitting on
// weighted information gain where each branch example carries its normalized
// execution weight n_k split into taken mass n_k·t_k and not-taken mass
// n_k·(1−t_k).
package dtree

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/features"
)

// Example is one training branch: its feature values and its weighted
// taken / not-taken mass.
type Example struct {
	Values [features.NumFeatures]string
	TakenW float64
	NotW   float64
}

// Config bounds tree growth.
type Config struct {
	// MaxDepth limits tree depth (default 8).
	MaxDepth int
	// MinWeight is the minimum total mass needed to split a node
	// (default 1e-4).
	MinWeight float64
	// MinGain is the minimum information gain needed to split
	// (default 1e-6).
	MinGain float64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 8
	}
	if c.MinWeight == 0 {
		c.MinWeight = 1e-4
	}
	if c.MinGain == 0 {
		c.MinGain = 1e-6
	}
	return c
}

// Node is a tree node: an internal node splits on one categorical feature;
// a leaf predicts the weighted taken-probability of its examples. Every
// node stores its probability so unseen feature values fall back to the
// deepest matching ancestor.
type Node struct {
	Feature   int              `json:"feature"` // -1 for leaves
	ProbTaken float64          `json:"prob"`
	Children  map[string]*Node `json:"children,omitempty"`
}

// Tree is a trained decision tree.
type Tree struct {
	Root *Node `json:"root"`
}

// Build grows a tree from weighted examples.
func Build(examples []Example, cfg Config) *Tree {
	cfg = cfg.withDefaults()
	used := make([]bool, features.NumFeatures)
	return &Tree{Root: build(examples, cfg, used, 0)}
}

func build(examples []Example, cfg Config, used []bool, depth int) *Node {
	taken, not := mass(examples)
	total := taken + not
	n := &Node{Feature: -1, ProbTaken: 0.5}
	if total > 0 {
		n.ProbTaken = taken / total
	}
	if depth >= cfg.MaxDepth || total < cfg.MinWeight || taken == 0 || not == 0 {
		return n
	}
	bestF, bestGain := -1, 0.0
	base := entropy(taken, not)
	for f := 0; f < features.NumFeatures; f++ {
		if used[f] {
			continue
		}
		gain := base - splitEntropy(examples, f, total)
		if gain > bestGain {
			bestGain, bestF = gain, f
		}
	}
	if bestF < 0 || bestGain < cfg.MinGain {
		return n
	}
	n.Feature = bestF
	n.Children = make(map[string]*Node)
	parts := partition(examples, bestF)
	used[bestF] = true
	for val, part := range parts {
		n.Children[val] = build(part, cfg, used, depth+1)
	}
	used[bestF] = false
	return n
}

func mass(examples []Example) (taken, not float64) {
	for _, e := range examples {
		taken += e.TakenW
		not += e.NotW
	}
	return taken, not
}

// entropy is the binary entropy of a weighted (taken, not) split, in nats.
func entropy(taken, not float64) float64 {
	total := taken + not
	if total == 0 {
		return 0
	}
	e := 0.0
	for _, m := range [2]float64{taken, not} {
		if m > 0 {
			p := m / total
			e -= float64(p * math.Log(p))
		}
	}
	return e
}

func splitEntropy(examples []Example, f int, total float64) float64 {
	type bucket struct{ taken, not float64 }
	buckets := make(map[string]*bucket)
	for _, e := range examples {
		b := buckets[e.Values[f]]
		if b == nil {
			b = &bucket{}
			buckets[e.Values[f]] = b
		}
		b.taken += e.TakenW
		b.not += e.NotW
	}
	var e float64
	for _, b := range buckets {
		w := (b.taken + b.not) / total
		e += float64(w * entropy(b.taken, b.not))
	}
	return e
}

func partition(examples []Example, f int) map[string][]Example {
	out := make(map[string][]Example)
	for _, e := range examples {
		out[e.Values[f]] = append(out[e.Values[f]], e)
	}
	return out
}

// Predict returns the estimated taken-probability for a feature vector.
func (t *Tree) Predict(values [features.NumFeatures]string) float64 {
	n := t.Root
	for n.Feature >= 0 {
		child, ok := n.Children[values[n.Feature]]
		if !ok {
			break // unseen value: use this node's distribution
		}
		n = child
	}
	return n.ProbTaken
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return size(t.Root) }

func size(n *Node) int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += size(c)
	}
	return s
}

// Depth returns the maximum depth (a lone root has depth 1).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Rules renders the tree as the paper's "simple if-then rules": one line per
// leaf, listing the feature tests on the path and the leaf's prediction.
func (t *Tree) Rules() []string {
	var out []string
	var walk func(n *Node, conds []string)
	walk = func(n *Node, conds []string) {
		if n.Feature < 0 {
			dir := "not-taken"
			if n.ProbTaken > 0.5 {
				dir = "taken"
			}
			cond := "always"
			if len(conds) > 0 {
				cond = strings.Join(conds, " and ")
			}
			out = append(out, fmt.Sprintf("if %s then predict %s (p=%.2f)", cond, dir, n.ProbTaken))
			return
		}
		vals := make([]string, 0, len(n.Children))
		for v := range n.Children {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			next := make([]string, len(conds)+1)
			copy(next, conds)
			next[len(conds)] = fmt.Sprintf("%s=%s", features.Name(n.Feature), v)
			walk(n.Children[v], next)
		}
	}
	walk(t.Root, nil)
	sort.Strings(out)
	return out
}
