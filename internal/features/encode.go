package features

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/neural"
)

// Encoder turns categorical feature vectors into the neural network's
// numeric inputs: each (feature, value) pair becomes a one-hot input column,
// every column is normalized to zero mean and unit standard deviation over
// the training corpus (Section 3.1.1), and an Unknown ("?") dependent
// feature contributes zero activity to all of its columns after
// normalization — the paper's gating of nonmeaningful dependent features.
type Encoder struct {
	// Vocab lists the known values per feature, sorted.
	Vocab [NumFeatures][]string
	// Offsets locates each feature's first column.
	Offsets [NumFeatures]int
	// Dim is the total input dimension.
	Dim int
	// Mean and Std hold the per-column normalization statistics.
	Mean []float64
	Std  []float64

	// index and rows are derived state (built by NewEncoder and Rebuild,
	// never serialized): the value lookup and precomputed row tables per
	// feature.
	index [NumFeatures]valueIndex
	rows  [NumFeatures]featureRows
}

// featureRows is one feature block's precomputed sparse encoding. A live
// value encodes as every non-constant column of its block at its "cold" (0)
// activity, except its own column, which is "hot" (1); constant columns
// always encode as zero and carry no entry.
type featureRows struct {
	// cols lists the block's non-constant columns, ascending.
	cols []int32
	// cold and hot hold (0−Mean)/Std and (1−Mean)/Std per cols entry: the
	// same float operations Encode performs, so the values are identical.
	cold []float64
	hot  []float64
	// slot maps a vocabulary position to its index in cols (−1 for a
	// constant column).
	slot []int32
}

// valueIndex maps one feature's vocabulary values to their positions. When
// every value packs into a uint64 (packKey) — values are short mnemonics, so
// they essentially always do — lookups take an open-addressed table
// (power-of-two size, linear probing, Fibonacci hashing); otherwise the
// feature falls back to a Go map.
type valueIndex struct {
	// keys[h]==0 marks an empty slot: packKey never returns 0 for a
	// non-empty string, and empty strings never reach lookup.
	keys  []uint64
	pos   []int32
	mask  uint64
	shift uint
	// slow replaces keys/pos when some vocabulary value is unpackable.
	slow map[string]int32
}

// packKey packs a short string into a uint64: little-endian bytes with the
// length in the top byte. Injective over strings of length 1..7, and never
// zero for them (the length byte is non-zero), so 0 can mark empty slots.
func packKey(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 7 {
		return 0, false
	}
	var k uint64
	for i := 0; i < len(s); i++ {
		k |= uint64(s[i]) << (8 * uint(i))
	}
	return k | uint64(len(s))<<56, true
}

// hashMul is the Fibonacci-hashing multiplier (2^64/φ, odd).
const hashMul = 0x9E3779B97F4A7C15

func newValueIndex(vocab []string) valueIndex {
	var x valueIndex
	for _, val := range vocab {
		if _, ok := packKey(val); !ok {
			x.slow = make(map[string]int32, len(vocab))
			for i, val := range vocab {
				x.slow[val] = int32(i)
			}
			return x
		}
	}
	size, bits := 2, uint(1)
	for size < 2*(len(vocab)+1) {
		size <<= 1
		bits++
	}
	x.keys = make([]uint64, size)
	x.pos = make([]int32, size)
	x.mask = uint64(size - 1)
	x.shift = 64 - bits
	for i, val := range vocab {
		k, _ := packKey(val)
		h := (k * hashMul) >> x.shift
		for x.keys[h] != 0 {
			h = (h + 1) & x.mask
		}
		x.keys[h] = k
		x.pos[h] = int32(i)
	}
	return x
}

// NewEncoder builds the vocabulary and normalization statistics from a
// training set of feature vectors.
func NewEncoder(train []Vector) *Encoder {
	e := &Encoder{}
	var seen [NumFeatures]map[string]int
	for f := 0; f < NumFeatures; f++ {
		seen[f] = make(map[string]int)
	}
	for _, v := range train {
		for f, val := range v.Values {
			if val != Unknown && val != "" {
				seen[f][val]++
			}
		}
	}
	dim := 0
	for f := 0; f < NumFeatures; f++ {
		vals := make([]string, 0, len(seen[f]))
		for val := range seen[f] {
			vals = append(vals, val)
		}
		sort.Strings(vals)
		e.Vocab[f] = vals
		e.Offsets[f] = dim
		dim += len(vals)
	}
	e.Dim = dim
	e.Mean = make([]float64, dim)
	e.Std = make([]float64, dim)
	n := float64(len(train))
	for f := 0; f < NumFeatures; f++ {
		for i, val := range e.Vocab[f] {
			c := e.Offsets[f] + i
			p := float64(seen[f][val]) / n
			e.Mean[c] = p
			// One-hot columns are Bernoulli(p): std = sqrt(p(1-p)).
			s := math.Sqrt(p * (1 - p))
			if s < 1e-9 {
				s = 0 // constant column: encode as zero activity always
			}
			e.Std[c] = s
		}
	}
	e.derive()
	return e
}

// Rebuild checks a deserialized encoder's shapes and reconstructs its
// derived lookup and row tables, which are not serialized.
func (e *Encoder) Rebuild() error {
	if len(e.Mean) != e.Dim || len(e.Std) != e.Dim {
		return fmt.Errorf("features: encoder has %d means and %d stds for %d columns",
			len(e.Mean), len(e.Std), e.Dim)
	}
	off := 0
	for f := range e.Vocab {
		if e.Offsets[f] != off {
			return fmt.Errorf("features: feature %d starts at column %d, want %d", f, e.Offsets[f], off)
		}
		off += len(e.Vocab[f])
	}
	if off != e.Dim {
		return fmt.Errorf("features: vocabulary spans %d columns, encoder dimension is %d", off, e.Dim)
	}
	e.derive()
	return nil
}

// derive builds the per-feature value lookup and row tables.
func (e *Encoder) derive() {
	for f := range e.rows {
		vocab := e.Vocab[f]
		e.index[f] = newValueIndex(vocab)
		fr := featureRows{slot: make([]int32, len(vocab))}
		for i := range vocab {
			c := e.Offsets[f] + i
			if e.Std[c] == 0 {
				fr.slot[i] = -1
				continue
			}
			fr.slot[i] = int32(len(fr.cols))
			fr.cols = append(fr.cols, int32(c))
			fr.cold = append(fr.cold, (0-e.Mean[c])/e.Std[c])
			fr.hot = append(fr.hot, (1-e.Mean[c])/e.Std[c])
		}
		e.rows[f] = fr
	}
}

// The values positions reports in place of a vocabulary position.
const (
	// unseen marks a value outside its feature's vocabulary: the block
	// encodes with every column cold.
	unseen = -1
	// gated marks a feature that encodes as all zeros: gated by the
	// caller, Unknown, or empty.
	gated = -2
)

// positions resolves every feature value of v in one pass: pos[f] is the
// value's position in Vocab[f] (its column is Offsets[f]+pos[f]), unseen,
// or gated when gate[f] is set or the value is Unknown or empty. Encode and
// AppendRow both resolve values here.
func (e *Encoder) positions(v *Vector, gate *[NumFeatures]bool, pos *[NumFeatures]int32) {
	for f := range v.Values {
		s := v.Values[f]
		if gate[f] || s == Unknown || s == "" {
			pos[f] = gated
			continue
		}
		x := &e.index[f]
		p := int32(unseen)
		if x.slow != nil {
			if i, ok := x.slow[s]; ok {
				p = i
			}
		} else if k, ok := packKey(s); ok {
			// An unpackable value against an all-packable vocabulary is
			// necessarily unseen.
			for h := (k * hashMul) >> x.shift; ; h = (h + 1) & x.mask {
				kk := x.keys[h]
				if kk == k {
					p = x.pos[h]
				}
				if kk == k || kk == 0 {
					break
				}
			}
		}
		pos[f] = p
	}
}

// Encode writes the normalized input vector for v into dst, which must have
// length Dim. Unknown dependent features yield zero activity across their
// columns; unseen values (possible for programs outside the training corpus)
// likewise contribute nothing. It is the dense reference form of AppendRow,
// kept as the test oracle for the sparse prediction and training paths.
func (e *Encoder) Encode(v Vector, dst []float64) {
	if len(dst) != e.Dim {
		panic(fmt.Sprintf("features: Encode dst length %d, want %d", len(dst), e.Dim))
	}
	for i := range dst {
		dst[i] = 0
	}
	var pos [NumFeatures]int32
	e.positions(&v, &[NumFeatures]bool{}, &pos)
	for f, p := range pos {
		if p == gated {
			// Zero activity for the whole feature block.
			continue
		}
		lo := e.Offsets[f]
		hi := lo + len(e.Vocab[f])
		for i := lo; i < hi; i++ {
			if e.Std[i] == 0 {
				dst[i] = 0
				continue
			}
			x := 0.0
			if i == lo+int(p) {
				x = 1
			}
			dst[i] = (x - e.Mean[i]) / e.Std[i]
		}
	}
}

// AppendRow appends v's encoded row in sparse form to idx and val and
// returns the extended slices: exactly the nonzero columns Encode writes,
// ascending, with bit-identical values, read from the precomputed row
// tables. A feature whose gate entry is set encodes as Unknown, so a model's
// excluded features need no masked copy of v. With enough capacity in idx
// and val (Dim entries suffice) it allocates nothing.
func (e *Encoder) AppendRow(idx []int32, val []float64, v *Vector, gate *[NumFeatures]bool) ([]int32, []float64) {
	var pos [NumFeatures]int32
	e.positions(v, gate, &pos)
	for f, p := range pos {
		if p == gated {
			continue
		}
		fr := &e.rows[f]
		n := len(val)
		idx = append(idx, fr.cols...)
		val = append(val, fr.cold...)
		if p >= 0 {
			if k := fr.slot[p]; k >= 0 {
				val[n+int(k)] = fr.hot[k]
			}
		}
	}
	return idx, val
}

// EncodeAllSparse encodes a batch in compressed-sparse-row form, one
// AppendRow per vector: gated ("?") feature blocks and constant (zero-std)
// columns produce no entries at all. The training kernels consume this
// directly.
func (e *Encoder) EncodeAllSparse(vs []Vector) *neural.CSR {
	total := 0
	for i := range vs {
		for f, val := range vs[i].Values {
			if val != Unknown && val != "" {
				total += len(e.rows[f].cols)
			}
		}
	}
	c := &neural.CSR{
		Cols:  e.Dim,
		Start: make([]int, 1, len(vs)+1),
		Index: make([]int32, 0, total),
		Value: make([]float64, 0, total),
	}
	var none [NumFeatures]bool
	for i := range vs {
		c.Index, c.Value = e.AppendRow(c.Index, c.Value, &vs[i], &none)
		c.Start = append(c.Start, len(c.Index))
	}
	return c
}
