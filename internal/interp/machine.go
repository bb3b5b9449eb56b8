package interp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/guard"
	"repro/internal/ir"
)

// Config controls an execution.
type Config struct {
	// Input is the program's input vector, served by the __input intrinsic
	// (index modulo length; an empty vector serves zeros).
	Input []int64
	// Seed seeds the deterministic generator behind the __rand intrinsic.
	Seed uint64
	// MaxInsns bounds execution; 0 means DefaultMaxInsns.
	MaxInsns int64
	// MemWords sizes the flat word memory; 0 means DefaultMemWords.
	MemWords int64
	// MaxCallDepth bounds activation nesting; 0 means DefaultMaxCallDepth.
	MaxCallDepth int
	// CollectEdges enables per-edge transition counting (needed only for
	// the Figure 2 experiment; branch counts are always collected).
	CollectEdges bool
}

// Defaults for Config.
const (
	DefaultMaxInsns     = int64(50_000_000)
	DefaultMemWords     = int64(1 << 21)
	DefaultMaxCallDepth = 4096
)

// Canonical returns the configuration with every zero field replaced by its
// default, so two configurations that run identically compare (and hash)
// identically. The artifact cache keys on this form.
func (c Config) Canonical() Config {
	if c.MaxInsns == 0 {
		c.MaxInsns = DefaultMaxInsns
	}
	if c.MemWords == 0 {
		c.MemWords = DefaultMemWords
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = DefaultMaxCallDepth
	}
	return c
}

// Execution errors. The budget-class errors (fuel, stack, heap, call depth)
// wrap guard.ErrBudgetExceeded, so a caller running untrusted programs can
// classify "the program exceeded its configured resource budget" with one
// errors.Is check, distinct from genuine program faults like a division by
// zero or an out-of-bounds access.
var (
	ErrFuel       = fmt.Errorf("interp: instruction budget exhausted: %w", guard.ErrBudgetExceeded)
	ErrMemBounds  = errors.New("interp: memory access out of bounds")
	ErrDivZero    = errors.New("interp: integer division by zero")
	ErrStack      = fmt.Errorf("interp: stack overflow: %w", guard.ErrBudgetExceeded)
	ErrHeap       = fmt.Errorf("interp: heap exhausted: %w", guard.ErrBudgetExceeded)
	ErrNoMain     = errors.New("interp: program has no main function")
	ErrBadJump    = errors.New("interp: indirect jump index out of range")
	ErrCallDepth  = fmt.Errorf("interp: call depth exceeded: %w", guard.ErrBudgetExceeded)
	ErrBadRuntime = errors.New("interp: unknown runtime intrinsic")
)

// totalRuns counts Run/RunTrace invocations process-wide. The artifact-cache
// tests use it to prove that a warm run performs zero interpreter traces.
var totalRuns atomic.Int64

// TotalRuns returns the number of interpreter executions started by this
// process.
func TotalRuns() int64 { return totalRuns.Load() }

// memBuf is a pooled word memory plus the dirty watermarks recorded when its
// previous execution released it: every word the program wrote lies in
// [1, loDirty) or [hiDirty, len) (stores below heapTop advance loDirty,
// stack-side stores lower hiDirty; word 0 is never written). Reuse only has
// to zero those two stripes instead of the whole default 16 MiB array, which
// on the corpus programs is a small fraction of it.
type memBuf struct {
	w                []int64
	loDirty, hiDirty int64
}

var memPool sync.Pool

// getMem returns a zeroed word memory of the requested size, reusing a
// pooled buffer when one of the same size is available.
func getMem(n int64) ([]int64, *memBuf) {
	if v := memPool.Get(); v != nil {
		b := v.(*memBuf)
		if int64(len(b.w)) == n {
			clear(b.w[1:b.loDirty])
			clear(b.w[b.hiDirty:])
			return b.w, b
		}
	}
	b := &memBuf{w: make([]int64, n)}
	return b.w, b
}

// machine is one execution of a program.
type machine struct {
	prog    *ir.Program
	cfg     Config
	mem     []int64
	buf     *memBuf
	loDirty int64 // all heap-side writes so far are below this
	hiDirty int64 // all stack-side writes so far are at or above this
	heapPtr int64 // bump allocator cursor
	heapTop int64 // stack/heap collision guard: stack may not descend below
	rng     uint64
	fuel    int64
	prof    *Profile
	depth   int

	// globals maps each global symbol to its resolved base address, for
	// lowering OpLda.
	globals map[string]int64

	// counts/refs are the dense branch profile: every static conditional
	// branch site gets a slot up front, and the dispatch loop counts straight
	// into the slots — no map lookups on the hot path. Function i's sites
	// occupy slots from slotBase[i] on, one per branch block in layout order.
	// The Profile's Branches map is materialized from these once, at run end.
	counts   []BranchCount
	refs     []ir.BranchRef
	slotBase []int32

	// trace, when non-nil, receives every conditional-branch outcome in
	// program order (RunTrace). The dispatch loop emits to it right where it
	// bumps the dense counters, so the stream aggregates bit-identically to
	// the Profile by construction.
	trace TraceSink

	// Micro-op images, one per function in program order; each is lowered
	// on its first call (uBsr), and its exact twin on its first uncovered
	// fuel charge (resume). fidx maps a function name to its index for
	// resolving calls.
	ufuncs []*uimage
	fidx   map[string]int
}

// newMachine applies configuration defaults, lays out globals, and assigns
// the dense branch-count slots.
func newMachine(p *ir.Program, cfg Config) *machine {
	cfg = cfg.Canonical()
	m := &machine{
		prog: p,
		cfg:  cfg,
		rng:  cfg.Seed*2862933555777941757 + 3037000493,
		fuel: cfg.MaxInsns,
	}
	m.mem, m.buf = getMem(cfg.MemWords)
	m.prof = &Profile{Program: p.Name, Calls: make(map[string]int64)}
	if cfg.CollectEdges {
		m.prof.Edges = make(map[EdgeRef]int64)
	}
	// Lay out globals starting at word 1 (0 stays null).
	m.globals = make(map[string]int64, len(p.Globals))
	base := int64(1)
	for i := range p.Globals {
		g := &p.Globals[i]
		m.globals[g.Name] = base
		for j, v := range g.Init {
			if base+int64(j) < cfg.MemWords {
				m.mem[base+int64(j)] = v
			}
		}
		base += g.Size
	}
	m.heapPtr = base
	// Stacks grow downward from the top of memory; the heap may not grow
	// into the reserved stack region and stacks may not descend below it.
	m.heapTop = cfg.MemWords - 64*1024
	if m.heapTop < m.heapPtr {
		m.heapTop = m.heapPtr
	}
	// The global-initializer writes above are the run's initial dirty stripe.
	m.loDirty = min(max(base, 1), cfg.MemWords)
	m.hiDirty = cfg.MemWords
	// Every static branch site gets a slot up front (so StaticSites covers
	// never-executed branches), in deterministic function/layout order. A
	// linked program's library functions take theirs from the image's
	// table, in the same order.
	m.slotBase = make([]int32, len(p.Funcs))
	own := p.Own()
	m.refs = appendSlots(nil, m.slotBase, own)
	if p.Image != nil {
		lib := slotsOf(p.Image)
		for k, base := range lib.base {
			m.slotBase[len(own)+k] = int32(len(m.refs)) + base
		}
		m.refs = append(m.refs, lib.refs...)
	}
	m.counts = make([]BranchCount, len(m.refs))
	return m
}

// imageSlots is the branch slots of a library image's functions, as
// newMachine assigns them: every slot's site in function/layout order, and
// each function's first slot counted from the image's first. It is built
// once per image and shared read-only.
type imageSlots struct {
	refs []ir.BranchRef
	base []int32
}

// slotTables maps each *ir.Image run by this process to a
// func() *imageSlots that builds its table once.
var slotTables sync.Map

// slotsOf returns img's slot table, building it on first use.
func slotsOf(img *ir.Image) *imageSlots {
	v, ok := slotTables.Load(img)
	if !ok {
		v, _ = slotTables.LoadOrStore(img, sync.OnceValue(func() *imageSlots {
			t := &imageSlots{base: make([]int32, len(img.Funcs))}
			t.refs = appendSlots(nil, t.base, img.Funcs)
			return t
		}))
	}
	return v.(func() *imageSlots)()
}

// appendSlots appends the branch slots of funcs to refs, one per branch
// block in function/layout order, and sets base[i] to the index of
// funcs[i]'s first slot.
func appendSlots(refs []ir.BranchRef, base []int32, funcs []*ir.Func) []ir.BranchRef {
	for i, f := range funcs {
		base[i] = int32(len(refs))
		for _, b := range f.Blocks {
			if hasSlot(b) {
				refs = append(refs, ir.BranchRef{Func: f.Name, Block: b.ID})
			}
		}
	}
	return refs
}

// hasSlot reports whether a block owns a branch-count slot: its terminator
// is a conditional branch, or (in an unverified program) the first
// terminator the dispatch loop stops at is one.
func hasSlot(b *ir.Block) bool {
	if b.Branch() != nil {
		return true
	}
	end := blockEnd(b.Insns)
	return end > 0 && b.Insns[end-1].Op.IsCondBranch()
}

// dirty records one written memory word in the watermarks. Stores below the
// heap/stack boundary advance loDirty; stack-side stores lower hiDirty.
func (m *machine) dirty(addr int64) {
	if addr < m.heapTop {
		if addr >= m.loDirty {
			m.loDirty = addr + 1
		}
	} else if addr < m.hiDirty {
		m.hiDirty = addr
	}
}

// release returns the word memory to the pool with its final dirty
// watermarks. Called exactly once per execution, success or error.
func (m *machine) release() {
	if m.buf == nil {
		return
	}
	m.buf.loDirty = m.loDirty
	m.buf.hiDirty = m.hiDirty
	m.mem = nil
	memPool.Put(m.buf)
	m.buf = nil
}

// finish materializes the Profile from the dense counters: branch counts,
// and the call and edge counts of every lowered micro-op image.
func (m *machine) finish(ret int64) *Profile {
	m.prof.Result = ret
	m.prof.Insns = m.cfg.MaxInsns - m.fuel
	m.prof.Branches = make(map[ir.BranchRef]*BranchCount, len(m.refs))
	for i, ref := range m.refs {
		c := &m.counts[i]
		m.prof.Branches[ref] = c
		m.prof.CondExec += c.Executed
		m.prof.CondTaken += c.Taken
	}
	for _, fi := range m.ufuncs {
		if fi.calls > 0 {
			m.prof.Calls[fi.fn.Name] += fi.calls
		}
		for from := 0; from+1 < len(fi.succAt); from++ {
			for s := fi.succAt[from]; s < fi.succAt[from+1]; s++ {
				if n := fi.edges[s]; n > 0 {
					m.prof.Edges[EdgeRef{Func: fi.fn.Name,
						From: fi.fn.Blocks[from].ID, To: fi.fn.Blocks[fi.edgeTo[s]].ID}] += n
				}
			}
		}
	}
	return m.prof
}

// Run executes the program's main function under the given configuration and
// returns the collected profile. It dispatches over the pre-decoded micro-op
// stream, and is bit-identical in every observable way (profiles, edges,
// results, outputs, and error points) to the original per-instruction
// interpreter that the package's tests keep as their oracle.
func Run(p *ir.Program, cfg Config) (*Profile, error) {
	return RunTrace(p, cfg, nil)
}

// runtime dispatches the OpRtcall intrinsics.
func (m *machine) runtime(id int64, regs []int64) error {
	switch id {
	case ir.RtAlloc:
		n := regs[ir.RegA0]
		if n < 0 {
			n = 0
		}
		if m.heapPtr+n >= m.heapTop {
			return ErrHeap
		}
		regs[ir.RegV0] = m.heapPtr
		m.heapPtr += n
	case ir.RtInput:
		if len(m.cfg.Input) == 0 {
			regs[ir.RegV0] = 0
		} else {
			i := regs[ir.RegA0] % int64(len(m.cfg.Input))
			if i < 0 {
				i += int64(len(m.cfg.Input))
			}
			regs[ir.RegV0] = m.cfg.Input[i]
		}
	case ir.RtPrint:
		m.prof.Outputs = append(m.prof.Outputs, regs[ir.RegA0])
	case ir.RtPrintF:
		m.prof.FOutputs = append(m.prof.FOutputs, math.Float64frombits(uint64(regs[ir.RegFA0])))
	case ir.RtRand:
		m.rng = m.rng*6364136223846793005 + 1442695040888963407
		regs[ir.RegV0] = int64((m.rng >> 33) & 0x7FFFFFFF)
	default:
		return ErrBadRuntime
	}
	return nil
}
