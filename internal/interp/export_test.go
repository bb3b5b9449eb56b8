package interp

import "repro/internal/ir"

// RunLowered is Run that also names the functions the run lowered to
// micro-ops, for the lazy-lowering test.
func RunLowered(p *ir.Program, cfg Config) (*Profile, []string, error) {
	m := newMachine(p, cfg)
	defer m.release()
	prof, err := m.runU(nil)
	var lowered []string
	for _, fi := range m.ufuncs {
		if len(fi.code) > 0 {
			lowered = append(lowered, fi.fn.Name)
		}
	}
	return prof, lowered, err
}
