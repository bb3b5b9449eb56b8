//go:build !amd64 || purego

package neural

func csrGather(h, w []float64, idx []int32, val []float64) {
	csrGatherGeneric(h, w, idx, val)
}

func csrScatter(gw, dh []float64, idx []int32, val []float64) {
	csrScatterGeneric(gw, dh, idx, val)
}
