package interp

import "repro/internal/ir"

// RunLowered is RunTrace that also names the functions the run lowered to
// micro-ops and the functions whose exact twin it lowered, for the
// lazy-lowering and fuel-sweep tests.
func RunLowered(p *ir.Program, cfg Config, sink TraceSink) (prof *Profile, lowered, twins []string, err error) {
	m := newMachine(p, cfg)
	defer m.release()
	prof, err = m.runU(sink)
	for _, fi := range m.ufuncs {
		if len(fi.code) > 0 {
			lowered = append(lowered, fi.fn.Name)
		}
		if fi.twin != nil {
			twins = append(twins, fi.fn.Name)
		}
	}
	return prof, lowered, twins, err
}
