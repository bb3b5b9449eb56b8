package cfg

// Dominator and post-dominator computation using the iterative algorithm of
// Cooper, Harvey, and Kennedy ("A Simple, Fast Dominance Algorithm"). The
// functions in this repository are small (tens to a few hundred blocks), so
// the simple algorithm is both fast enough and easy to validate against a
// naive quadratic reference in the tests.

// Idom returns the immediate-dominator array: Idom()[i] is the dense index
// of block i's immediate dominator, -1 for the entry block and for blocks
// unreachable from the entry.
func (g *Graph) Idom() []int {
	if g.idom == nil {
		g.idom = computeIdom(g.N(), g.Entry(), reversePostorder(g.Succ, g.Entry()), g.Pred)
	}
	return g.idom
}

// Ipdom returns the immediate-post-dominator array over the reverse CFG,
// using a virtual exit that every return block feeds into. Ipdom()[i] is -1
// for blocks that post-dominate everything on their paths (i.e. blocks whose
// immediate post-dominator is the virtual exit) as well as for blocks that
// cannot reach any exit (infinite loops).
func (g *Graph) Ipdom() []int {
	if g.ipdom == nil {
		g.ipdom = g.computeIpdom()
	}
	return g.ipdom
}

// Dominates reports whether block a dominates block b (reflexive).
func (g *Graph) Dominates(a, b int) bool {
	idom := g.Idom()
	for {
		if a == b {
			return true
		}
		if b == g.Entry() || idom[b] < 0 {
			return false
		}
		b = idom[b]
	}
}

// PostDominates reports whether block a post-dominates block b (reflexive).
func (g *Graph) PostDominates(a, b int) bool {
	ipdom := g.Ipdom()
	for {
		if a == b {
			return true
		}
		if ipdom[b] < 0 {
			return false
		}
		b = ipdom[b]
	}
}

// computeIdom runs the CHK iterative algorithm. rpo must list the nodes
// reachable from entry in reverse postorder. Unreachable nodes keep idom -1.
func computeIdom(n, entry int, rpo []int, pred [][]int) []int {
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[entry] = entry
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range pred[b] {
				if idom[p] < 0 || rpoNum[p] < 0 {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = -1
	return idom
}

// computeIpdom computes post-dominators by running the same algorithm on the
// reverse graph extended with a virtual exit node. The reverse graph's
// successor lists are the forward predecessor lists and its predecessor
// lists the forward successor lists, so only the virtual exit's edges are
// new.
func (g *Graph) computeIpdom() []int {
	n := g.N()
	exit := n // virtual exit node index
	// The virtual exit has an edge from every block with no forward
	// successors.
	lists := make([][]int, 2*(n+1))
	rsucc := lists[: n+1 : n+1] // successors in the reverse graph
	rpred := lists[n+1:]        // predecessors in the reverse graph
	copy(rsucc, g.Pred)
	toExit := []int{exit}
	for i := 0; i < n; i++ {
		if len(g.Succ[i]) == 0 {
			rsucc[exit] = append(rsucc[exit], i)
			rpred[i] = toExit
		} else {
			rpred[i] = g.Succ[i]
		}
	}
	ipdomExt := computeIdom(n+1, exit, reversePostorder(rsucc, exit), rpred)
	out := ipdomExt[:n]
	for i, d := range out {
		if d == exit {
			out[i] = -1
		}
	}
	return out
}
