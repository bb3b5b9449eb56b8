package features

import (
	"slices"
	"sync"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// imageSites is the analysis of one library image's functions on their
// own, built once per image and shared read-only by every program linked
// against it, whose library functions are the image's own (ir.Program.Image).
// The per-function slices are indexed like ir.Image.Funcs.
type imageSites struct {
	graphs []*cfg.Graph // frozen
	ptrs   *cfg.LibraryPointers
	facts  []*cfg.PointerInfo // each function's facts alone
	sites  [][]*Site          // each function's sites in block order
	vecs   [][]Vector         // each function's vectors, in the same order
	all    []Vector           // every vector, in site order
	names  []string           // the image's function names, sorted
}

type imageCell struct {
	once  sync.Once
	sites *imageSites
}

// images maps each *ir.Image analyzed by this process to its *imageCell.
var images sync.Map

// imageOf returns img's analysis, building it on first use.
func imageOf(img *ir.Image) *imageSites {
	v, ok := images.Load(img)
	if !ok {
		v, _ = images.LoadOrStore(img, &imageCell{})
	}
	c := v.(*imageCell)
	c.once.Do(func() { c.sites = analyzeImage(img) })
	return c.sites
}

// analyzeImage collects and extracts the image's functions as a program of
// their own, recording the pointer inference's computes for linked runs
// (cfg.LibraryPointers). Calls from the library into a linked program's
// functions do not exist, so what a library function's sites depend on is
// its own IR and its pointer facts, which Collect compares per program.
func analyzeImage(img *ir.Image) *imageSites {
	var lp *cfg.LibraryPointers
	ps := collect(&ir.Program{Name: img.ID, Funcs: img.Funcs, Globals: img.Globals}, nil,
		func(p *ir.Program, graphs map[string]*cfg.Graph) map[string]*cfg.PointerInfo {
			lp = cfg.NewLibraryPointers(p.Funcs, graphs)
			return lp.Facts()
		})
	is := &imageSites{
		graphs: make([]*cfg.Graph, len(img.Funcs)),
		ptrs:   lp,
		facts:  make([]*cfg.PointerInfo, len(img.Funcs)),
		sites:  make([][]*Site, len(img.Funcs)),
		vecs:   make([][]Vector, len(img.Funcs)),
		all:    ExtractAll(ps),
		names:  make([]string, len(img.Funcs)),
	}
	byName := make(map[string]int, len(img.Funcs))
	for k, fn := range img.Funcs {
		g := ps.Graphs[fn.Name]
		g.Freeze()
		is.graphs[k], is.facts[k] = g, ps.Ptrs[fn.Name]
		is.names[k] = fn.Name
		byName[fn.Name] = k
	}
	slices.Sort(is.names)
	for i := 0; i < len(ps.Sites); {
		j := i + 1
		for j < len(ps.Sites) && ps.Sites[j].Ref.Func == ps.Sites[i].Ref.Func {
			j++
		}
		k := byName[ps.Sites[i].Ref.Func]
		is.sites[k] = ps.Sites[i:j:j]
		is.vecs[k] = is.all[i:j:j]
		i = j
	}
	return is
}

// OwnVectors returns the vectors of vecs, a linked program's vectors in
// site order, that belong to its own functions rather than to img's. A
// library function's vectors depend on its IR alone, never on pointer
// facts, so SpliceVectors restores vecs from the result.
func OwnVectors(img *ir.Image, vecs []Vector) []Vector {
	is := imageOf(img)
	out := make([]Vector, 0, max(len(vecs)-len(is.all), 0))
	for i := 0; i < len(vecs); {
		j := i + 1
		for j < len(vecs) && vecs[j].Ref.Func == vecs[i].Ref.Func {
			j++
		}
		if _, lib := slices.BinarySearch(is.names, vecs[i].Ref.Func); !lib {
			out = append(out, vecs[i:j]...)
		}
		i = j
	}
	return out
}

// EachLinked calls fn with each vector of a program linked against img,
// in site order (what ExtractAll returns for it), merging own, the vectors
// of its own functions in site order (OwnVectors), with img's. A nil img
// stands for an unlinked program, whose vectors are all own. fn receives
// pointers into own and into img's analysis, shared by every program
// linked against it, and must not modify the vectors. This is the one
// place the merge order is written: SpliceVectors and the examples of a
// cached record both walk it.
func EachLinked(img *ir.Image, own []Vector, fn func(*Vector)) {
	var lib []Vector
	if img != nil {
		lib = imageOf(img).all
	}
	i, k := 0, 0
	for i < len(own) && k < len(lib) {
		if own[i].Ref.Func < lib[k].Ref.Func {
			fn(&own[i])
			i++
		} else {
			fn(&lib[k])
			k++
		}
	}
	for ; i < len(own); i++ {
		fn(&own[i])
	}
	for ; k < len(lib); k++ {
		fn(&lib[k])
	}
}

// NumLinked returns how many vectors EachLinked(img, own, …) visits: the
// site count of the linked program.
func NumLinked(img *ir.Image, own []Vector) int {
	if img == nil {
		return len(own)
	}
	return len(own) + len(imageOf(img).all)
}

// SpliceVectors returns the vectors of a program linked against img in
// site order, copied out of own and img's analysis (EachLinked).
func SpliceVectors(img *ir.Image, own []Vector) []Vector {
	out := make([]Vector, 0, NumLinked(img, own))
	EachLinked(img, own, func(v *Vector) { out = append(out, *v) })
	return out
}
