// Decision-pinned quantization calibration.
//
// Quantization is allowed to move probabilities but must never flip a
// measured outcome: every taken/not-taken decision — and therefore every
// Table 4 miss rate — must be bit-identical to the float64 reference over
// the whole corpus. The calibration achieves that with two knobs:
//
//  1. A clip margin. One-hot z-normalized activations are heavy-tailed (a
//     rare feature value normalizes to (1−p)/√(p(1−p)), far larger than the
//     common values' magnitudes), so quantizing the full range wastes most
//     of the int8 grid on outliers. The sweep clips the representable range
//     to margin·max|activation| (larger inputs saturate) and measures how
//     faithful each margin is.
//
//  2. A guard band. For each margin, the sweep finds every corpus branch
//     whose quantized decision disagrees with the float one and records the
//     largest quantized decision margin |y_q − 0.5| among them. Setting the
//     guard just above it means every disagreeing branch falls inside the
//     band — where the model recomputes in float64 — so corpus-wide
//     decisions are pinned *by construction*, and the differential test
//     verifies it end to end.
//
// The sweep measures every margin with the one int8 forward pass there is —
// the fused contribution tables of quantfast.go that serving answers with —
// so the guard band is derived from exactly the probabilities serving
// produces. The chosen margin is the one that sends the fewest vectors to
// the float fallback (the serving cost of safety), tie-broken by
// probability fidelity.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/features"
	"repro/internal/neural"
)

// DefaultQuantMargins is the clip-margin sweep grid: 1 keeps the corpus's
// full activation range representable; smaller margins trade outlier
// saturation for grid resolution on the common values.
var DefaultQuantMargins = []float64{1, 0.75, 0.5, 0.35, 0.25, 0.18, 0.125, 0.09, 0.0625}

// QuantSweepPoint reports one margin of the calibration sweep.
type QuantSweepPoint struct {
	// Margin is the clip margin; XScale the input scale it induces.
	Margin float64 `json:"margin"`
	XScale float64 `json:"xscale"`
	// Flips counts corpus branch sites whose raw quantized decision
	// disagrees with the float reference (before the guard band).
	Flips int `json:"flips"`
	// Guard is the guard band needed to pin every decision: the largest
	// |y_q − 0.5| among flipped sites (plus a safety epsilon), zero when
	// nothing flips.
	Guard float64 `json:"guard"`
	// GuardHits counts corpus vectors that fall inside the guard band and
	// would take the float64 fallback when serving.
	GuardHits int `json:"guard_hits"`
	// Vectors is the corpus-wide vector count the sweep evaluated.
	Vectors int `json:"vectors"`
	// MeanAbsDelta and MaxAbsDelta measure probability movement between
	// the raw quantized and float outputs.
	MeanAbsDelta float64 `json:"mean_abs_delta"`
	MaxAbsDelta  float64 `json:"max_abs_delta"`
}

// FallbackFraction is the fraction of corpus vectors served by the float
// fallback under this margin's guard band.
func (p QuantSweepPoint) FallbackFraction() float64 {
	if p.Vectors == 0 {
		return 0
	}
	return float64(p.GuardHits) / float64(p.Vectors)
}

// QuantCalibrationReport is the full sweep outcome.
type QuantCalibrationReport struct {
	// MaxAbsActivation is the corpus encoder's activation range the
	// margins scale against.
	MaxAbsActivation float64           `json:"max_abs_activation"`
	Points           []QuantSweepPoint `json:"points"`
	Chosen           QuantSweepPoint   `json:"chosen"`
}

// Render formats the sweep as a table for esptool calibrate.
func (r *QuantCalibrationReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Quantization calibration sweep (corpus max |activation| = %.3f)\n", r.MaxAbsActivation)
	fmt.Fprintf(&sb, "%8s %10s %6s %9s %10s %10s %10s\n",
		"margin", "xscale", "flips", "guard", "fallback", "mean|Δp|", "max|Δp|")
	for _, p := range r.Points {
		marker := " "
		if p.Margin == r.Chosen.Margin {
			marker = "*"
		}
		fmt.Fprintf(&sb, "%7.4f%s %10.4f %6d %9.6f %9.2f%% %10.6f %10.6f\n",
			p.Margin, marker, p.XScale, p.Flips, p.Guard,
			100*p.FallbackFraction(), p.MeanAbsDelta, p.MaxAbsDelta)
	}
	fmt.Fprintf(&sb, "chosen: margin %.4f, xscale %.4f, guard %.6f — decisions pinned, %.2f%% of corpus vectors take the float fallback\n",
		r.Chosen.Margin, r.Chosen.XScale, r.Chosen.Guard, 100*r.Chosen.FallbackFraction())
	return sb.String()
}

// guardEpsilon pads the guard band so a flipped site sits strictly inside
// it rather than exactly on its edge.
const guardEpsilon = 1e-9

// CalibrateQuant sweeps the quantization scale over the corpus and pins
// decisions: for every margin it quantizes the model, runs every corpus
// feature vector through the float reference and the int8 fused pass that
// serving uses, and derives the guard band
// that routes every would-flip decision to the float64 fallback. The
// winning calibration is stored in m.QuantCalib (ready for EnableQuant and
// Save); the model's serving path is left untouched. A nil margins slice
// sweeps DefaultQuantMargins.
func CalibrateQuant(m *Model, data []*ProgramData, margins []float64) (*QuantCalibrationReport, error) {
	if m.Net == nil {
		return nil, fmt.Errorf("core: quantization calibration requires the neural classifier (have %s)", m.Cfg.Classifier)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("core: quantization calibration needs corpus programs")
	}
	if len(margins) == 0 {
		margins = DefaultQuantMargins
	}

	// The float64 reference probabilities are margin-independent: compute
	// them once, through the float serving path. Both passes gate the
	// excluded features themselves, so the vectors are used unmasked.
	var vecs []features.Vector
	for _, pd := range data {
		vecs = append(vecs, pd.Vectors...)
	}
	ref := make([]float64, len(vecs))
	buf := m.getBuf()
	for i := range vecs {
		ref[i] = m.forwardFloat(&vecs[i], buf)
	}
	m.scratch.Put(buf)

	maxAbs := m.Encoder.MaxAbsActivation()
	if maxAbs == 0 {
		return nil, fmt.Errorf("core: degenerate encoder: zero activation range")
	}
	rep := &QuantCalibrationReport{MaxAbsActivation: maxAbs}
	acc := make([]int32, m.Net.Hidden)
	for _, margin := range margins {
		if margin <= 0 {
			return nil, fmt.Errorf("core: bad calibration margin %v", margin)
		}
		xscale := 127 / (maxAbs * margin)
		qn, err := neural.Quantize(m.Net, xscale)
		if err != nil {
			return nil, err
		}
		fused := newQuantFused(qn, m.Encoder, &m.gate)
		p := QuantSweepPoint{Margin: margin, XScale: xscale, Vectors: len(vecs)}
		var sumDelta float64
		quant := make([]float64, len(vecs))
		for i := range vecs {
			yq := fused.forward(&vecs[i], acc)
			quant[i] = yq
			d := math.Abs(yq - ref[i])
			sumDelta += d
			if d > p.MaxAbsDelta {
				p.MaxAbsDelta = d
			}
			if (ref[i] > 0.5) != (yq > 0.5) {
				p.Flips++
				if g := math.Abs(yq - 0.5); g > p.Guard {
					p.Guard = g
				}
			}
		}
		if p.Flips > 0 {
			p.Guard += guardEpsilon
		}
		for _, yq := range quant {
			if math.Abs(yq-0.5) <= p.Guard {
				p.GuardHits++
			}
		}
		p.MeanAbsDelta = sumDelta / float64(len(vecs))
		rep.Points = append(rep.Points, p)
	}

	// Choose the cheapest safe point: fewest fallback hits, then best
	// probability fidelity, then the larger margin (less saturation for
	// out-of-corpus inputs).
	order := make([]int, len(rep.Points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := rep.Points[order[a]], rep.Points[order[b]]
		if pa.GuardHits != pb.GuardHits {
			return pa.GuardHits < pb.GuardHits
		}
		if pa.MeanAbsDelta != pb.MeanAbsDelta {
			return pa.MeanAbsDelta < pb.MeanAbsDelta
		}
		return pa.Margin > pb.Margin
	})
	rep.Chosen = rep.Points[order[0]]
	m.QuantCalib = &QuantCalibration{
		XScale: rep.Chosen.XScale,
		Guard:  rep.Chosen.Guard,
		Margin: rep.Chosen.Margin,
	}
	return rep, nil
}
