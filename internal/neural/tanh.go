package neural

import "math"

// tanhApprox is the quantized path's tanh: a 2048-bucket linear
// interpolation over [0, 8), clamped to ±1 outside. Max error ≈ 1.5e-6 —
// three orders of magnitude below the quantization noise the calibration
// sweep already absorbs, and an order of magnitude faster than math.Tanh,
// which otherwise dominates the int8 forward pass.
//
// The approximation is part of the quantized model's definition: the
// calibration sweep measures decision flips with this exact function, so
// serving must use it too (see QuantNet.Forward / ForwardAcc). The float64
// reference path keeps math.Tanh untouched.

const (
	tanhBuckets = 2048
	tanhMax     = 8.0 // tanh(8) is within 2.3e-7 of 1
	tanhScale   = tanhBuckets / tanhMax
)

// tanhTable holds tanh at the bucket edges. It is built at package
// initialization (2049 math.Tanh calls) so tanhApprox carries no
// once-check and stays small enough to inline into ForwardAcc.
var tanhTable = func() (t [tanhBuckets + 1]float64) {
	for i := range t {
		t[i] = math.Tanh(float64(i) / tanhScale)
	}
	return t
}()

func tanhApprox(x float64) float64 {
	neg := false
	if x < 0 {
		neg = true
		x = -x
	}
	var y float64
	if x >= tanhMax || math.IsNaN(x) {
		y = 1
	} else {
		t := x * tanhScale
		i := int(t)
		y = tanhTable[i] + (t-float64(i))*(tanhTable[i+1]-tanhTable[i])
	}
	if neg {
		return -y
	}
	return y
}
