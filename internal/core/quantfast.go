package core

import (
	"repro/internal/features"
	"repro/internal/neural"
)

// quantFused is the int8 forward pass, used by calibration and serving
// alike. The quantized input row is almost entirely zeros: each of the 25
// features contributes one small one-hot block, and a (feature, value)
// pair always quantizes to the same block under the calibrated input
// scale. So for every (feature, value) pair we quantize that block once
// and prefold it against the int8 weight matrix, yielding an H-wide int32
// contribution vector, and a prediction becomes 25 table lookups plus 25
// H-wide int32 adds, finished by neural.QuantNet.ForwardAcc.
//
// The accumulators are exactly the full-row int8 dot products
// Σ_j WQ[i·d+j]·qx[j]: integer addition is exact and associative, and
// |WQ·qx| ≤ 127·127 keeps every int32 sum exact for rows far wider than
// the encoder's. The full-row form survives only as the test oracle
// (TestQuantFusedMatchesKernelPath).
type quantFused struct {
	net   *neural.QuantNet
	feats [features.NumFeatures]fusedFeature
}

// fusedFeature maps one feature's values to prefolded contribution vectors.
// Lookups take the packed-key open-addressing table when every vocabulary
// value packs into a uint64 (they essentially always do — values are short
// mnemonics); otherwise the whole feature falls back to a Go map.
type fusedFeature struct {
	// gated marks a feature the model excludes (Config.ExcludeFeatures):
	// masking it to "?" would zero its block, so the fused path just skips
	// it — which is why serving never needs the per-vector mask copy.
	gated bool
	// keys/vals form an open-addressed hash table (power-of-two size,
	// linear probing). keys[h]==0 marks an empty slot — safe because
	// packKey never returns 0 for a non-empty string and empty strings
	// never reach lookup (gated features are skipped).
	keys  []uint64
	vals  [][]int32
	mask  uint64
	shift uint
	// unseen is the contribution of an out-of-vocabulary value.
	unseen []int32
	// slow replaces keys/vals when some vocabulary value is unpackable.
	slow map[string][]int32
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

// fusedHashMul is the Fibonacci-hashing multiplier (2^64/φ, odd).
const fusedHashMul = 0x9E3779B97F4A7C15

// newQuantFused quantizes every (feature, value) block of the float
// encoder on qn's input grid and folds it against the quantized weight
// matrix. Features in excluded are gated: forward treats them exactly as if
// the vector had been masked to "?".
func newQuantFused(qn *neural.QuantNet, enc *features.Encoder, excluded map[int]bool) *quantFused {
	f := &quantFused{net: qn}
	d, step := qn.Inputs, 1/qn.XScale
	// fold returns the contribution of feature block [off, off+width) with
	// column off+hot set (hot < 0: an unseen value, no column set). Each
	// column is normalized exactly as Encoder.Encode does and quantized
	// with QuantizeSym; constant columns encode as zero.
	fold := func(off, width, hot int) []int32 {
		contrib := make([]int32, qn.Hidden)
		for j := 0; j < width; j++ {
			c := off + j
			if enc.Std[c] == 0 {
				continue
			}
			x := 0.0
			if j == hot {
				x = 1
			}
			qx := int32(neural.QuantizeSym((x-enc.Mean[c])/enc.Std[c], step))
			for i := range contrib {
				contrib[i] += int32(qn.WQ[i*d+c]) * qx
			}
		}
		return contrib
	}
	for ft := 0; ft < features.NumFeatures; ft++ {
		ff := &f.feats[ft]
		if excluded[ft] {
			ff.gated = true
			continue
		}
		off, vocab := enc.Offsets[ft], enc.Vocab[ft]
		ff.unseen = fold(off, len(vocab), -1)
		packable := true
		for _, val := range vocab {
			if _, ok := packKey(val); !ok {
				packable = false
				break
			}
		}
		if !packable {
			ff.slow = make(map[string][]int32, len(vocab))
			for vi, val := range vocab {
				ff.slow[val] = fold(off, len(vocab), vi)
			}
			continue
		}
		size := 1
		for size < 2*(len(vocab)+1) {
			size <<= 1
		}
		ff.keys = make([]uint64, size)
		ff.vals = make([][]int32, size)
		ff.mask = uint64(size - 1)
		ff.shift = 64 - uint(log2(size))
		for vi, val := range vocab {
			k, _ := packKey(val)
			h := (k * fusedHashMul) >> ff.shift
			for ff.keys[h] != 0 {
				h = (h + 1) & ff.mask
			}
			ff.keys[h] = k
			ff.vals[h] = fold(off, len(vocab), vi)
		}
	}
	return f
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// forward runs one vector through the fused path. v may be unmasked: the
// model's excluded features are gated in the tables themselves. acc is the
// caller's H-wide scratch. Allocates nothing.
func (f *quantFused) forward(v *features.Vector, acc []int32) float64 {
	for i := range acc {
		acc[i] = 0
	}
	for ft := range v.Values {
		ff := &f.feats[ft]
		val := v.Values[ft]
		if ff.gated || val == features.Unknown || val == "" {
			// Masked or gated feature: the encoded block is all-zero,
			// contribution 0.
			continue
		}
		var contrib []int32
		switch {
		case ff.slow != nil:
			c, ok := ff.slow[val]
			if !ok {
				c = ff.unseen
			}
			contrib = c
		default:
			k, ok := packKey(val)
			if !ok {
				// Unpackable query against an all-packable vocabulary:
				// necessarily out of vocabulary.
				contrib = ff.unseen
				break
			}
			h := (k * fusedHashMul) >> ff.shift
			for {
				kk := ff.keys[h]
				if kk == k {
					contrib = ff.vals[h]
					break
				}
				if kk == 0 {
					contrib = ff.unseen
					break
				}
				h = (h + 1) & ff.mask
			}
		}
		for i, c := range contrib {
			acc[i] += c
		}
	}
	return f.net.ForwardAcc(acc)
}
