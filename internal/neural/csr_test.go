package neural

import (
	"math"
	"sync"
	"testing"
)

// synthBatch builds a deterministic batch with the sparsity structure the
// encoder produces: blocks of columns that are either entirely zero (a gated
// feature) or entirely nonzero (an active, mean-centered one-hot block).
func synthBatch(rows, cols, block int, seed uint64) ([][]float64, []float64, []float64) {
	r := newRNG(seed)
	xs := make([][]float64, rows)
	t := make([]float64, rows)
	w := make([]float64, rows)
	var wsum float64
	for k := range xs {
		x := make([]float64, cols)
		for b := 0; b < cols; b += block {
			if r.uniform() < 0.3 {
				continue // gated block: exact zeros
			}
			hi := b + block
			if hi > cols {
				hi = cols
			}
			for j := b; j < hi; j++ {
				x[j] = 2*r.uniform() - 1
			}
		}
		xs[k] = x
		if r.uniform() < 0.5 {
			t[k] = 1
		}
		w[k] = r.uniform() + 0.01
		wsum += w[k]
	}
	for k := range w {
		w[k] /= wsum
	}
	return xs, t, w
}

func sameNet(t *testing.T, label string, a, b *Net) {
	t.Helper()
	for i, v := range a.W {
		if v != b.W[i] {
			t.Fatalf("%s: W[%d] = %g vs %g", label, i, v, b.W[i])
		}
	}
	for i := range a.B {
		if a.B[i] != b.B[i] || a.V[i] != b.V[i] {
			t.Fatalf("%s: hidden unit %d differs", label, i)
		}
	}
	if a.A != b.A {
		t.Fatalf("%s: A = %g vs %g", label, a.A, b.A)
	}
}

func sameResult(t *testing.T, label string, a, b TrainResult) {
	t.Helper()
	if a.Epochs != b.Epochs || a.StoppedEarly != b.StoppedEarly {
		t.Fatalf("%s: epochs %d/%v vs %d/%v", label,
			a.Epochs, a.StoppedEarly, b.Epochs, b.StoppedEarly)
	}
	if a.FinalLoss != b.FinalLoss || a.BestThresholded != b.BestThresholded ||
		a.FinalLearnRate != b.FinalLearnRate {
		t.Fatalf("%s: loss %v/%v/%v vs %v/%v/%v", label,
			a.FinalLoss, a.BestThresholded, a.FinalLearnRate,
			b.FinalLoss, b.BestThresholded, b.FinalLearnRate)
	}
}

// TestTrainCSRMatchesDense is the tentpole equivalence guarantee: the sparse
// fused kernel must produce bit-for-bit the same model and statistics as the
// dense reference on the same seed and data. The 275-row batch makes each
// weight's gradient a long sum, where any reordering of its terms would
// show in the bits.
func TestTrainCSRMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		rows int
	}{{1, 90}, {42, 90}, {12345, 90}, {3, 275}} {
		cfg := Config{Inputs: 40, Hidden: 7, Seed: tc.seed,
			MaxEpochs: 150, Patience: 12, RecordHistory: true}
		xs, targets, w := synthBatch(tc.rows, cfg.Inputs, 5, tc.seed*31+7)

		dense := New(cfg)
		dres := dense.Train(cfg, xs, targets, w)

		sparse := New(cfg)
		sres := sparse.TrainCSR(cfg, NewCSRFromDense(xs, cfg.Inputs), targets, w)

		sameNet(t, "model", dense, sparse)
		sameResult(t, "stats", dres, sres)
		if len(dres.LossHistory) != len(sres.LossHistory) {
			t.Fatalf("loss history length %d vs %d",
				len(dres.LossHistory), len(sres.LossHistory))
		}
		for i := range dres.LossHistory {
			if dres.LossHistory[i] != sres.LossHistory[i] {
				t.Fatalf("loss history[%d]: %g vs %g",
					i, dres.LossHistory[i], sres.LossHistory[i])
			}
		}
		if len(dres.ThresholdHistory) != len(sres.ThresholdHistory) {
			t.Fatalf("threshold history length %d vs %d",
				len(dres.ThresholdHistory), len(sres.ThresholdHistory))
		}
		for i := range dres.ThresholdHistory {
			if dres.ThresholdHistory[i] != sres.ThresholdHistory[i] {
				t.Fatalf("threshold history[%d]: %g vs %g",
					i, dres.ThresholdHistory[i], sres.ThresholdHistory[i])
			}
		}
	}
}

// TestTrainCSRWorkerInvariance: training is serial within one call, and the
// only parallelism left is many calls at once (cross-validation trains its
// folds concurrently over shared batches). Every worker count must give the
// bits of one lone call, so TrainCSR may keep no shared mutable state and
// must not write to its inputs.
func TestTrainCSRWorkerInvariance(t *testing.T) {
	base := Config{Inputs: 30, Hidden: 6, Seed: 3, MaxEpochs: 40, Patience: 40}
	xs, targets, w := synthBatch(4*64+19, base.Inputs, 5, 77)
	data := NewCSRFromDense(xs, base.Inputs)

	ref := New(base)
	rres := ref.TrainCSR(base, data, targets, w)

	for _, workers := range []int{2, 3, 8} {
		nets := make([]*Net, workers)
		results := make([]TrainResult, workers)
		var wg sync.WaitGroup
		for i := range nets {
			nets[i] = New(base)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = nets[i].TrainCSR(base, data, targets, w)
			}(i)
		}
		wg.Wait()
		for i := range nets {
			sameNet(t, "workers", ref, nets[i])
			sameResult(t, "workers", rres, results[i])
		}
	}
}

func TestForwardIntoMatchesForward(t *testing.T) {
	n := New(Config{Inputs: 9, Hidden: 4, Seed: 6})
	h := make([]float64, n.Hidden)
	r := newRNG(55)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, n.Inputs)
		for j := range x {
			if r.uniform() < 0.4 {
				x[j] = 2*r.uniform() - 1
			}
		}
		if got, want := n.ForwardInto(h, x), n.Forward(x); got != want {
			t.Fatalf("ForwardInto = %g, Forward = %g", got, want)
		}
	}
}

// TestForwardRowMatchesDense: the CSR row forward must be bit-identical to
// the dense forward on the equivalent dense row.
func TestForwardRowMatchesDense(t *testing.T) {
	n := New(Config{Inputs: 25, Hidden: 5, Seed: 8})
	xs, _, _ := synthBatch(30, n.Inputs, 5, 91)
	data := NewCSRFromDense(xs, n.Inputs)
	h := make([]float64, n.Hidden)
	for k, x := range xs {
		idx, val := data.Row(k)
		if got, want := n.ForwardSparse(h, idx, val), n.Forward(x); got != want {
			t.Fatalf("row %d: ForwardSparse = %g, Forward = %g", k, got, want)
		}
	}
}

func TestHistoryGatedByConfig(t *testing.T) {
	cfg := Config{Inputs: 10, Hidden: 3, Seed: 2, MaxEpochs: 30, Patience: 30}
	xs, targets, w := synthBatch(20, cfg.Inputs, 5, 13)
	n := New(cfg)
	res := n.TrainCSR(cfg, NewCSRFromDense(xs, cfg.Inputs), targets, w)
	if res.LossHistory != nil || res.ThresholdHistory != nil {
		t.Error("history recorded without RecordHistory")
	}
	cfg.RecordHistory = true
	n2 := New(cfg)
	res2 := n2.TrainCSR(cfg, NewCSRFromDense(xs, cfg.Inputs), targets, w)
	if len(res2.LossHistory) != res2.Epochs {
		t.Errorf("loss history %d entries, want %d", len(res2.LossHistory), res2.Epochs)
	}
	if math.IsInf(res2.BestThresholded, 1) {
		t.Error("BestThresholded never set")
	}
}

// TestKernelsMatchGeneric exercises the dispatching gather/scatter kernels
// against the portable loops across awkward shapes: every hidden width
// around the gather's 16- and 4-lane register blocks (single lanes, exact
// blocks, one past a block, and mixes of all three), empty rows, and rows
// that repeat a column.
func TestKernelsMatchGeneric(t *testing.T) {
	r := newRNG(321)
	type shapeT struct{ n, cols, nnz int }
	var shapes []shapeT
	for _, n := range []int{1, 3, 4, 5, 6, 7, 15, 16, 17, 20, 33} {
		for _, nnz := range []int{0, 1, 5, 25, 60} {
			shapes = append(shapes, shapeT{n, 3 + n%11, nnz})
		}
	}
	for _, shape := range shapes {
		w := make([]float64, shape.cols*shape.n)
		for i := range w {
			w[i] = 2*r.uniform() - 1
		}
		idx := make([]int32, shape.nnz)
		val := make([]float64, shape.nnz)
		for p := range idx {
			idx[p] = int32(int(r.next()) % shape.cols)
			if idx[p] < 0 {
				idx[p] += int32(shape.cols)
			}
			val[p] = 2*r.uniform() - 1
		}
		h1 := make([]float64, shape.n)
		h2 := make([]float64, shape.n)
		for i := range h1 {
			h1[i] = r.uniform()
			h2[i] = h1[i]
		}
		csrGather(h1, w, idx, val)
		csrGatherGeneric(h2, w, idx, val)
		for i := range h1 {
			if h1[i] != h2[i] {
				t.Fatalf("gather %+v: h[%d] = %g vs %g", shape, i, h1[i], h2[i])
			}
		}
		g1 := make([]float64, len(w))
		g2 := make([]float64, len(w))
		dh := make([]float64, shape.n)
		for i := range dh {
			dh[i] = 2*r.uniform() - 1
		}
		csrScatter(g1, dh, idx, val)
		csrScatterGeneric(g2, dh, idx, val)
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("scatter %+v: g[%d] = %g vs %g", shape, i, g1[i], g2[i])
			}
		}
	}
}
