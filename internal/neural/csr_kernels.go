package neural

// The two inner loops of the sparse training kernel, in axpy form. Both are
// "accumulator[i] += scale * vector[i]" over all n hidden units, once per
// nonzero input column (columns are n wide in the column-major weights):
//
//	gather:  h[i]        += w[col*n+i] * val[p]   (forward pass)
//	scatter: gw[col*n+i] += dh[i] * val[p]        (gradient pass)
//
// The amd64 build carries AVX versions (csr_kernels_amd64.s). Vectorizing is
// bit-safe here because lanes are distinct accumulators: every h[i] / gw slot
// still receives exactly the same multiplies and adds in the same order as
// the scalar loop, and the kernels use separate IEEE multiply and add
// instructions (never FMA, whose single rounding would change results).

// csrGatherGeneric is the portable gather: len(h) accumulators, input
// columns of the same width starting at w.
func csrGatherGeneric(h, w []float64, idx []int32, val []float64) {
	n := len(h)
	for p, j := range idx {
		xv := val[p]
		col := w[int(j)*n : int(j)*n+n]
		for i, wv := range col {
			h[i] += wv * xv
		}
	}
}

// csrScatterGeneric is the portable scatter: adds dh[i]*val[p] into column
// idx[p] of gw (columns len(dh) wide) for every nonzero.
func csrScatterGeneric(gw, dh []float64, idx []int32, val []float64) {
	n := len(dh)
	for p, j := range idx {
		xv := val[p]
		col := gw[int(j)*n : int(j)*n+n]
		for i := range col {
			col[i] += dh[i] * xv
		}
	}
}
