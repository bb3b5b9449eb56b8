package cfg

import "repro/internal/ir"

// PointerResult exposes a PointerInfo's results to the oracle tests: the
// per-instruction operand marks, the argument registers each direct callee
// was passed a pointer in (as a mask, bit n for An; callees never passed
// one are absent), and whether the function returns a pointer.
func PointerResult(pi *PointerInfo) (ptrAt [][]uint8, callArgs map[string]uint8, returnsPtr bool) {
	callArgs = make(map[string]uint8)
	k := 0
	for _, b := range pi.g.Blocks {
		for i := range b.Insns {
			if in := &b.Insns[i]; in.Op == ir.OpBsr {
				if m := pi.callArgs[k]; m != 0 {
					callArgs[in.Sym] |= m
				}
				k++
			}
		}
	}
	return pi.ptrAt, callArgs, pi.returnsPtr
}

// PointerFacts exposes every result of a PointerInfo exactly: the operand
// marks, the pointer-argument mask of each direct call in layout order,
// and whether the function returns a pointer.
func PointerFacts(pi *PointerInfo) (ptrAt [][]uint8, callArgs []uint8, returnsPtr bool) {
	return pi.ptrAt, pi.callArgs, pi.returnsPtr
}

// Recorded reports whether pi is one of the results l recorded.
func Recorded(l *LibraryPointers, pi *PointerInfo) bool {
	for _, entries := range l.memo {
		for _, e := range entries {
			if e.pi == pi {
				return true
			}
		}
	}
	return false
}
