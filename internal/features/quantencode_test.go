package features

import (
	"testing"

	"repro/internal/neural"
)

// quantFixture builds an encoder over a small synthetic training set with
// the shapes that matter: common and rare values (skewed column stats),
// gated features, and a constant column candidate.
func quantFixture() (*Encoder, []Vector) {
	mk := func(vals ...string) Vector {
		var v Vector
		for i := range v.Values {
			v.Values[i] = Unknown
		}
		for i, val := range vals {
			v.Values[i] = val
		}
		return v
	}
	train := []Vector{
		mk("BEQ", "F", "SLT"),
		mk("BEQ", "F", "ADD"),
		mk("BEQ", "B", "SLT"),
		mk("BNE", "F", "SLT"),
		mk("BEQ", "F", "SLT"),
		mk("BEQ", "F", "RARE"), // rare value: skewed Bernoulli stats
		mk("BEQ", "F"),         // gated third feature
	}
	return NewEncoder(train), train
}

// TestQuantEncoderMatchesFloatPath is the grid-equivalence contract the
// int8 contribution tables rest on: for every vector (training values, an
// unseen value, gated features), quantizing the float Encode output column
// by column gives exactly the bytes built one feature block at a time from
// Vocab, Mean and Std — hot column x=1, others x=0, (x−Mean)/Std on the
// QuantizeSym grid, constant columns 0, a gated feature's whole block 0.
func TestQuantEncoderMatchesFloatPath(t *testing.T) {
	enc, train := quantFixture()
	probe := append([]Vector(nil), train...)
	unseen := train[0]
	unseen.Values[0] = "NEVER-SEEN"
	probe = append(probe, unseen)
	gatedAll := Vector{}
	for i := range gatedAll.Values {
		gatedAll.Values[i] = Unknown
	}
	probe = append(probe, gatedAll)

	x := make([]float64, enc.Dim)
	want := make([]int8, enc.Dim)
	got := make([]int8, enc.Dim)
	for _, xscale := range []float64{127 / enc.MaxAbsActivation(), 127 / 4.0, 16.0} {
		step := 1 / xscale
		for vi, v := range probe {
			enc.Encode(v, x)
			for i, xv := range x {
				want[i] = neural.QuantizeSym(xv, step)
			}
			for i := range got {
				got[i] = 0
			}
			for f, val := range v.Values {
				if val == Unknown || val == "" {
					continue
				}
				hot := -1
				for vj, known := range enc.Vocab[f] {
					if known == val {
						hot = vj
					}
				}
				for j := range enc.Vocab[f] {
					c := enc.Offsets[f] + j
					if enc.Std[c] == 0 {
						continue
					}
					xv := 0.0
					if j == hot {
						xv = 1
					}
					got[c] = neural.QuantizeSym((xv-enc.Mean[c])/enc.Std[c], step)
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("xscale=%v vector %d column %d: block path %d, float path %d",
						xscale, vi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMaxAbsActivation checks the calibration range against a brute-force
// scan of every encodable column state.
func TestMaxAbsActivation(t *testing.T) {
	enc, train := quantFixture()
	var brute float64
	x := make([]float64, enc.Dim)
	probe := append([]Vector(nil), train...)
	unseen := train[0]
	unseen.Values[1] = "NOPE"
	probe = append(probe, unseen)
	for _, v := range probe {
		enc.Encode(v, x)
		for _, xv := range x {
			if a := xv; a < 0 {
				a = -a
				if a > brute {
					brute = a
				}
			} else if a > brute {
				brute = a
			}
		}
	}
	if m := enc.MaxAbsActivation(); m < brute {
		t.Fatalf("MaxAbsActivation %v < observed activation %v", m, brute)
	}
}
