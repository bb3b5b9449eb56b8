package features

import "math"

// MaxAbsActivation returns the largest activation magnitude the float
// encoder can produce on any column — the calibration sweep's reference
// range. Columns are Bernoulli(p) normalized to (x−p)/√(p(1−p)), so the
// extreme is reached by a rare value's hit: (1−p)/√(p(1−p)).
func (e *Encoder) MaxAbsActivation() float64 {
	var m float64
	for i := range e.Mean {
		if e.Std[i] == 0 {
			continue
		}
		lo := math.Abs(0-e.Mean[i]) / e.Std[i]
		hi := math.Abs(1-e.Mean[i]) / e.Std[i]
		if lo > m {
			m = lo
		}
		if hi > m {
			m = hi
		}
	}
	return m
}
