package features

// SharedFuncs returns, in site order, the functions whose sites Collect
// took from the program's library image.
func SharedFuncs(ps *ProgramSites) []string {
	if ps.Prog.Image == nil {
		return nil
	}
	shared := map[*Site]bool{}
	for _, sites := range imageOf(ps.Prog.Image).sites {
		for _, s := range sites {
			shared[s] = true
		}
	}
	var out []string
	for i, s := range ps.Sites {
		if shared[s] && (i == 0 || ps.Sites[i-1].Ref.Func != s.Ref.Func) {
			out = append(out, s.Ref.Func)
		}
	}
	return out
}
