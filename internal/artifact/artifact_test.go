package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/interp"
	"repro/internal/ir"
)

func testProgram(t *testing.T, name string) (*ir.Program, interp.Config) {
	t.Helper()
	e, ok := corpus.ByName(name)
	if !ok {
		t.Fatalf("no corpus program %q", name)
	}
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	return prog, e.RunConfig()
}

func analyzed(t *testing.T, name string) (string, *Record) {
	t.Helper()
	prog, cfg := testProgram(t, name)
	prof, err := interp.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := features.Collect(prog)
	return Key(prog, cfg), &Record{Profile: prof, Vectors: features.ExtractAll(ps)}
}

func TestRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, rec := analyzed(t, "bc")
	if _, ok := c.Load(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Store(key, rec); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(key)
	if !ok {
		t.Fatal("miss after store")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatal("loaded record differs from stored record")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Load("deadbeef"); ok {
		t.Fatal("nil cache hit")
	}
	if err := c.Store("deadbeef", &Record{}); err != nil {
		t.Fatal(err)
	}
}

// TestKeySensitivity: the key must move when anything that can change the
// analysis moves — the program text or any canonical config field — and
// must NOT move when a zero config is spelled out explicitly.
func TestKeySensitivity(t *testing.T) {
	prog, cfg := testProgram(t, "bc")
	base := Key(prog, cfg)

	prog2, _ := testProgram(t, "bc")
	if Key(prog2, cfg) != base {
		t.Fatal("identical program+config produced different keys")
	}
	other, _ := testProgram(t, "gzip")
	if Key(other, cfg) == base {
		t.Fatal("different programs share a key")
	}

	mut := cfg
	mut.Seed = cfg.Seed + 1
	if Key(prog, mut) == base {
		t.Fatal("seed change did not move the key")
	}
	mut = cfg
	mut.CollectEdges = !cfg.CollectEdges
	if Key(prog, mut) == base {
		t.Fatal("CollectEdges change did not move the key")
	}
	mut = cfg
	mut.Input = append(append([]int64(nil), cfg.Input...), 7)
	if Key(prog, mut) == base {
		t.Fatal("input change did not move the key")
	}

	spelled := cfg.Canonical() // zero fields replaced by explicit defaults
	if Key(prog, spelled) != base {
		t.Fatal("canonical form and zero form disagree")
	}

	// A mutated instruction immediate must move the key even though the
	// program shape is unchanged.
	progMut, _ := testProgram(t, "bc")
	progMut.Funcs[0].Blocks[0].Insns[0].Imm++
	if Key(progMut, cfg) == base {
		t.Fatal("IR mutation did not move the key")
	}
}

// TestKeySensitivityLinked: a linked program's key covers its own IR, its
// library image and the config, and differs from the key of the same IR
// unmarked, whose record holds every vector.
func TestKeySensitivityLinked(t *testing.T) {
	prog, cfg := testProgram(t, "bc")
	if prog.Image == nil {
		t.Fatal("bc is not linked against the runtime library")
	}
	base := Key(prog, cfg)

	own, _ := testProgram(t, "bc")
	fn := own.Own()[len(own.Own())-1]
	fn.Blocks[len(fn.Blocks)-1].Insns[0].Imm++
	if Key(own, cfg) == base {
		t.Fatal("a change to the program's own IR did not move the key")
	}
	global, _ := testProgram(t, "bc")
	global.Globals = append(global.Globals, ir.Global{Name: "extra", Size: 1})
	if Key(global, cfg) == base {
		t.Fatal("a new global did not move the key")
	}

	fortran, err := corpus.LibraryImage(ir.LangFortran, codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	mips, err := corpus.LibraryImage(prog.Image.Funcs[0].Language, codegen.MIPSCC)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range []*ir.Image{fortran, mips} {
		if img.ID == prog.Image.ID {
			t.Fatal("two different library images share an ID")
		}
		other := *prog
		other.Image = img
		if Key(&other, cfg) == base {
			t.Fatal("a different library image did not move the key")
		}
	}

	mut := cfg
	mut.Seed++
	if Key(prog, mut) == base {
		t.Fatal("a config change did not move the key")
	}
	plain := *prog
	plain.Image = nil
	if Key(&plain, cfg) == base {
		t.Fatal("the marked and unmarked program share a key")
	}
}

func entryPath(t *testing.T, c *Cache, key string) string {
	t.Helper()
	p := c.path(key)
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// corruptions maps a failure mode to a file mutation; every one must read
// back as a plain miss.
func TestCorruptEntriesAreMisses(t *testing.T) {
	key, rec := analyzed(t, "bc")
	cases := map[string]func([]byte) []byte{
		"truncated header":  func(b []byte) []byte { return b[:3] },
		"truncated payload": func(b []byte) []byte { return b[:len(b)-7] },
		"empty":             func(b []byte) []byte { return nil },
		"flipped payload":   func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"flipped magic":     func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"stale version": func(b []byte) []byte {
			return bytes.Replace(b, []byte(FormatVersion), []byte("espa-0"), 1)
		},
		"previous version": func(b []byte) []byte {
			return bytes.Replace(b, []byte(FormatVersion), []byte("espa-5"), 1)
		},
		"garbage": func([]byte) []byte { return []byte("not a cache entry at all") },
	}
	for name, mutate := range cases {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Store(key, rec); err != nil {
				t.Fatal(err)
			}
			p := entryPath(t, c, key)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Load(key); ok {
				t.Fatalf("%s entry served as a hit", name)
			}
			// The miss must recover: a fresh store over the damage hits again.
			if err := c.Store(key, rec); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Load(key); !ok || !reflect.DeepEqual(got, rec) {
				t.Fatal("restore after corruption failed")
			}
		})
	}
}

// A file renamed to another entry's key must not be served under that key:
// the embedded key echo catches it even though version and checksum pass.
func TestWrongKeyIsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, rec := analyzed(t, "bc")
	otherKey, _ := analyzed(t, "gzip")
	if err := c.Store(key, rec); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.path(key), c.path(otherKey)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(otherKey); ok {
		t.Fatal("mis-keyed entry served as a hit")
	}
}

func TestStoreLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, rec := analyzed(t, "bc")
	for i := 0; i < 3; i++ {
		if err := c.Store(key, rec); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("want exactly the entry file, got %v", names)
	}
}

// Concurrent readers and writers on the same and different keys must be
// race-clean (the -race build checks the memory side) and every load must
// observe either a miss or a complete, correct record (the rename gives
// atomicity on the file side).
func TestConcurrentReadersWriters(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keyA, recA := analyzed(t, "bc")
	keyB, recB := analyzed(t, "gzip")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key, rec := keyA, recA
			if g%2 == 1 {
				key, rec = keyB, recB
			}
			for i := 0; i < 20; i++ {
				if i%3 == 0 {
					if err := c.Store(key, rec); err != nil {
						t.Errorf("store: %v", err)
						return
					}
				}
				if got, ok := c.Load(key); ok && !reflect.DeepEqual(got, rec) {
					t.Error("load observed a wrong or partial record")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Injected faults at the artifact sites must degrade to miss/skip, not
// break loads or stores.
func TestFaultInjection(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, rec := analyzed(t, "bc")

	inj := faultinject.New(1,
		faultinject.Rule{Site: "artifact.store", Kind: faultinject.Error, Rate: 1})
	defer faultinject.Activate(inj)()
	if err := c.Store(key, rec); err == nil {
		t.Fatal("injected store fault not reported")
	}
	if _, ok := c.Load(key); ok {
		t.Fatal("hit after a faulted store: something was written")
	}

	inj2 := faultinject.New(1,
		faultinject.Rule{Site: "artifact.load", Kind: faultinject.Error, Rate: 1})
	defer faultinject.Activate(inj2)()
	if err := c.Store(key, rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key); ok {
		t.Fatal("injected load fault did not read as a miss")
	}
}

func TestDefaultDir(t *testing.T) {
	if got := DefaultDir("explicit"); got != "explicit" {
		t.Fatalf("flag value not honored: %q", got)
	}
	t.Setenv("ESPCACHE_DIR", filepath.Join("env", "cache"))
	if got := DefaultDir(""); got != filepath.Join("env", "cache") {
		t.Fatalf("env value not honored: %q", got)
	}
	t.Setenv("ESPCACHE_DIR", "")
	if got := DefaultDir(""); got != ".espcache" {
		t.Fatalf("default not honored: %q", got)
	}
}
