package core

import (
	"testing"

	"repro/internal/features"
	"repro/internal/neural"
)

// kernelForward is the full-row oracle for the fused int8 pass: the float
// encoder's row, quantized column by column with QuantizeSym, then H
// full-row int8 dot products finished by ForwardAcc. It returns the
// probability and the accumulators. v must already be masked.
func kernelForward(qn *neural.QuantNet, enc *features.Encoder, v features.Vector) (float64, []int32) {
	x := make([]float64, enc.Dim)
	enc.Encode(v, x)
	qx := make([]int8, enc.Dim)
	for j, xv := range x {
		qx[j] = neural.QuantizeSym(xv, 1/qn.XScale)
	}
	acc := make([]int32, qn.Hidden)
	for i := range acc {
		for j, w := range qn.WQ[i*qn.Inputs : (i+1)*qn.Inputs] {
			acc[i] += int32(w) * int32(qx[j])
		}
	}
	return qn.ForwardAcc(acc), acc
}

// TestQuantFusedMatchesKernelPath is the bit-identity contract between the
// fused contribution tables and the full-row oracle (kernelForward): same
// accumulators and same probability, bit for bit, across every lookup
// shape — vocabulary hits, packable and unpackable (>7 byte) values, unseen
// values, and gated features — and across input scales that keep the
// whole activation range representable and ones that saturate it.
func TestQuantFusedMatchesKernelPath(t *testing.T) {
	mk := func(vals ...string) features.Vector {
		var v features.Vector
		for i := range v.Values {
			v.Values[i] = features.Unknown
		}
		for i, val := range vals {
			v.Values[i] = val
		}
		return v
	}
	// Feature 1 gets a >7-byte vocabulary value, forcing its value lookup
	// onto the encoder's slow-map fallback; the others stay on packed
	// keys. "RARE" occurs once in 18 rows, so it normalizes to √17 ≈ 4.1
	// and saturates the ±4 input range.
	train := []features.Vector{
		mk("BEQ", "LONG-VOCAB-VALUE", "SLT"),
		mk("BNE", "F", "SLT"),
		mk("BEQ", "F", "ADD"),
		mk("BEQ", "B", "SLT"),
		mk("BNE", "LONG-VOCAB-VALUE", "ADD"),
		mk("BNE", "B", "RARE"),
	}
	for len(train) < 18 {
		train = append(train, mk("BEQ", "F", "SLT"))
	}
	var examples []Example
	for i, v := range train {
		examples = append(examples, Example{Vector: v, Target: float64(i%2) - 0.5, Weight: 1})
	}
	m := TrainExamples(examples, Config{})

	probes := append([]features.Vector(nil), train...)
	probes = append(probes,
		mk("NEVER"),                     // unseen short value
		mk("NEVER-SEEN-AND-QUITE-LONG"), // unseen unpackable value
		mk("BEQ", "ALSO-LONG-BUT-NEW"),  // unpackable miss on the slow-map feature
		mk("BNE", "F", "NEW"),           // unseen value beside trained ones
		mk("BEQ", "B"),                  // gated third feature
		mk(),                            // fully gated
	)

	maxAbs := m.Encoder.MaxAbsActivation()
	xscales := []float64{127 / (maxAbs * 0.5), 127 / maxAbs, 127 / 4.0, 16}
	for _, xscale := range xscales {
		qn, err := neural.Quantize(m.Net, xscale)
		if err != nil {
			t.Fatal(err)
		}
		none := &featureGate{}
		fused := newQuantFused(qn, m.Encoder, none)
		// A gated table must equal the oracle on the masked vector.
		excluded := &featureGate{0: true}
		gated := newQuantFused(qn, m.Encoder, excluded)

		acc := make([]int32, qn.Hidden)
		check := func(kind string, pi int, f *quantFused, excl *featureGate, v features.Vector) {
			t.Helper()
			want, wantAcc := kernelForward(qn, m.Encoder, maskVector(v, excl))
			got := f.forward(&v, acc)
			for i := range acc {
				if acc[i] != wantAcc[i] {
					t.Errorf("xscale %v probe %d: %s accumulator %d = %d, oracle %d",
						xscale, pi, kind, i, acc[i], wantAcc[i])
				}
			}
			if got != want {
				t.Errorf("xscale %v probe %d: %s %v, oracle %v — not bit-identical",
					xscale, pi, kind, got, want)
			}
		}
		for pi := range probes {
			check("fused", pi, fused, none, probes[pi])
			check("gated fused", pi, gated, excluded, probes[pi])
		}
	}
}
