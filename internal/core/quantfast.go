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
// contribution vector, and a prediction becomes one pass of value lookups
// (features.Encoder.Positions, shared with the float path) plus 25 H-wide
// int32 adds, finished by neural.QuantNet.ForwardAcc.
//
// The accumulators are exactly the full-row int8 dot products
// Σ_j WQ[i·d+j]·qx[j]: integer addition is exact and associative, and
// |WQ·qx| ≤ 127·127 keeps every int32 sum exact for rows far wider than
// the encoder's. The full-row form survives only as the test oracle
// (TestQuantFusedMatchesKernelPath).
type quantFused struct {
	net   *neural.QuantNet
	enc   *features.Encoder
	gate  featureGate
	feats [features.NumFeatures]fusedFeature
}

// fusedFeature holds one feature's prefolded H-wide contribution vectors
// back to back, the value at vocabulary position p (features.Encoder.
// Positions) at vals[p·H:], followed by the contribution of an
// out-of-vocabulary value.
type fusedFeature struct {
	vals []int32
}

// newQuantFused quantizes every (feature, value) block of the float
// encoder on qn's input grid and folds it against the quantized weight
// matrix. Features marked in gate are gated: forward treats them exactly as
// if the vector had been masked to "?" — which is why serving never needs
// the per-vector mask copy.
func newQuantFused(qn *neural.QuantNet, enc *features.Encoder, gate *featureGate) *quantFused {
	f := &quantFused{net: qn, enc: enc, gate: *gate}
	d, step := qn.Inputs, 1/qn.XScale
	// fold returns the contribution of feature block [off, off+width) with
	// column off+hot set (hot < 0: an unseen value, no column set). Each
	// column is normalized exactly as Encoder.Encode does and quantized
	// with QuantizeSym; constant columns encode as zero.
	fold := func(contrib []int32, off, width, hot int) {
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
	}
	for ft := range f.feats {
		if gate[ft] {
			continue
		}
		off, width, h := enc.Offsets[ft], len(enc.Vocab[ft]), qn.Hidden
		vals := make([]int32, (width+1)*h)
		for vi := 0; vi < width; vi++ {
			fold(vals[vi*h:(vi+1)*h], off, width, vi)
		}
		fold(vals[width*h:], off, width, -1)
		f.feats[ft].vals = vals
	}
	return f
}

// forward runs one vector through the fused path. v may be unmasked: the
// model's excluded features are gated in the lookup. acc is the caller's
// H-wide scratch. Allocates nothing.
func (f *quantFused) forward(v *features.Vector, acc []int32) float64 {
	for i := range acc {
		acc[i] = 0
	}
	var pos [features.NumFeatures]int32
	f.enc.Positions(v, &f.gate, &pos)
	h := len(acc)
	for ft, p := range pos {
		if p == features.Gated {
			// The encoded block is all-zero: contribution 0.
			continue
		}
		if p == features.Unseen {
			p = int32(len(f.enc.Vocab[ft])) // the trailing unseen entry
		}
		addInt32(acc, f.feats[ft].vals[int(p)*h:int(p)*h+h])
	}
	return f.net.ForwardAcc(acc)
}

// addInt32 adds c into acc lane by lane (len(c) ≤ len(acc)), unrolled by
// four: the adds are most of the fused pass, and the unrolled loop runs
// them about twice as fast as the plain one.
func addInt32(acc, c []int32) {
	acc = acc[:len(c)]
	i := 0
	for ; i+4 <= len(c); i += 4 {
		acc[i] += c[i]
		acc[i+1] += c[i+1]
		acc[i+2] += c[i+2]
		acc[i+3] += c[i+3]
	}
	for ; i < len(c); i++ {
		acc[i] += c[i]
	}
}
