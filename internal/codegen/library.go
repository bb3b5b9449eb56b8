package codegen

import (
	"fmt"
	"sync"

	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/minic"
)

// Library is a runtime library that is compiled once per (language,
// target) and linked into programs, the way the paper's binaries linked the
// native OS libraries instead of recompiling them. Compiling a program
// against a Library runs parse, sema and lowering over the program's own
// source only; the program shares the library's lowered functions and
// globals' initial values (ir.Program.Image).
//
// Linking is exact: for a program whose source parses and checks both
// alone and concatenated with the library source, Compile returns the same
// IR as compiling the concatenated source. Any error is reported without
// that guarantee, so callers that need the concatenated compile's exact
// error text compile the concatenated source when linking fails.
//
// A Library is safe for concurrent use.
type Library struct {
	ast   *minic.Program
	cells sync.Map // libKey -> *libCell
}

type libKey struct {
	lang ir.Language
	tgt  Target
}

// libCell lazily holds one (language, target) image.
type libCell struct {
	once sync.Once
	img  *libImage
	err  error
}

// libImage is a library checked and lowered for one language and target.
// Everything in it is read-only once built: links read the checked AST
// (calls into the library resolve to its declarations) and share the IR,
// marking the linked program with the ir.Image.
type libImage struct {
	ast       *minic.Program
	ir        *ir.Image
	maxBlocks int // largest function CFG, for guard.Limits.CFGBlocks
}

// NewLibrary wraps a parsed, unchecked library. The library must not
// define main; the AST is cloned before use and never modified.
func NewLibrary(ast *minic.Program) *Library {
	return &Library{ast: ast}
}

// image returns the library compiled for lang and tgt, building it on first
// use.
func (l *Library) image(lang ir.Language, tgt Target) (*libImage, error) {
	v, _ := l.cells.LoadOrStore(libKey{lang, tgt}, &libCell{})
	c := v.(*libCell)
	c.once.Do(func() { c.img, c.err = buildImage(l.ast, lang, tgt) })
	return c.img, c.err
}

// buildImage clones, unrolls, checks and lowers the library. It is checked
// with a stub main appended (sema demands one) and lowered through the same
// path as any program; the stub and the register save area are then
// dropped, because every linked program brings its own.
func buildImage(src *minic.Program, lang ir.Language, tgt Target) (*libImage, error) {
	lib := minic.CloneProgram(src)
	unrollProgram(lib, tgt, nil)
	nFuncs := len(lib.Funcs)
	lib.Funcs = append(lib.Funcs, &minic.FuncDecl{Name: "main", Ret: minic.TypeInt, Body: &minic.BlockStmt{}})
	if err := minic.Check(lib); err != nil {
		return nil, fmt.Errorf("codegen: library %s: %w", lib.Name, err)
	}
	prog, err := lower(lib, nil, lang, tgt, guard.Limits{}, nil, nil)
	if err != nil {
		return nil, err
	}
	lib.Funcs = lib.Funcs[:nFuncs]
	img := &libImage{ast: lib, ir: ir.NewImage(prog.Funcs[:nFuncs:nFuncs], prog.Globals[:len(lib.Globals):len(lib.Globals)])}
	for _, f := range img.ir.Funcs {
		img.maxBlocks = max(img.maxBlocks, len(f.Blocks))
	}
	return img, nil
}

// Image returns the library compiled for lang and tgt, building it on
// first use: the image that Compile marks its programs with.
func (l *Library) Image(lang ir.Language, tgt Target) (*ir.Image, error) {
	img, err := l.image(lang, tgt)
	if err != nil {
		return nil, err
	}
	return img.ir, nil
}

// Compile compiles a parsed, unchecked program linked against the library,
// under lim like CompileBounded. Only the program's own functions are
// unrolled, checked and lowered; the library's are its image's own, shared
// and placed after the program's, and the program is marked with the image
// (ir.Program.Image). A library function over lim.CFGBlocks fails the link
// just as it fails the concatenated compile.
//
// Compile takes ownership of user: it unrolls and annotates the AST in
// place, so a caller that compiles one parse more than once passes a
// minic.CloneProgram of it.
func (l *Library) Compile(user *minic.Program, lang ir.Language, tgt Target, lim guard.Limits) (*ir.Program, error) {
	img, err := l.image(lang, tgt)
	if err != nil {
		return nil, err
	}
	if lim.CFGBlocks > 0 && img.maxBlocks > lim.CFGBlocks {
		return nil, fmt.Errorf("codegen: library CFG has %d blocks, limit %d: %w",
			img.maxBlocks, lim.CFGBlocks, guard.ErrBudgetExceeded)
	}
	unrollProgram(user, tgt, nil)
	nGlobals, nFuncs := len(user.Globals), len(user.Funcs)
	linked := &minic.Program{
		Name:    user.Name,
		Globals: append(user.Globals, img.ast.Globals...),
		Funcs:   append(user.Funcs, img.ast.Funcs...),
	}
	if err := minic.CheckLinked(linked, len(img.ast.Globals), len(img.ast.Funcs)); err != nil {
		return nil, fmt.Errorf("codegen: %s: %w", user.Name, err)
	}
	user.Globals, user.Funcs = linked.Globals[:nGlobals], linked.Funcs[:nFuncs]
	return lower(user, img, lang, tgt, lim, nil, nil)
}
