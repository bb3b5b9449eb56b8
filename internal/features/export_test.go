package features

// SharedFuncs returns, in site order, the functions whose sites Collect
// copied from the program's library image.
func SharedFuncs(ps *ProgramSites) []string {
	var out []string
	for _, r := range ps.shared {
		out = append(out, ps.Sites[r.start].Ref.Func)
	}
	return out
}
