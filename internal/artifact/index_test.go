package artifact

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/ir"
)

var testIdentity = bytes.Repeat([]byte{7}, 32)

func testSource() Source {
	return Source{Name: "p", Language: ir.LangC, Target: codegen.Default,
		Run: interp.Config{Seed: 3, Input: []int64{1, 2}}, Text: "int main() { return 0; }"}
}

func testKey(srcs ...Source) string { return IndexKey(testIdentity, srcs) }

// TestIndexKeySensitivity: every part of a compile input, the binary, and
// the batch's order and extent move the key; equivalent spellings of a
// target or run config do not.
func TestIndexKeySensitivity(t *testing.T) {
	base := testKey(testSource())
	if !isKey(base) {
		t.Fatalf("IndexKey = %q, not a key", base)
	}
	changes := map[string]func(s *Source){
		"name":     func(s *Source) { s.Name = "q" },
		"language": func(s *Source) { s.Language = ir.LangFortran },
		"target":   func(s *Source) { s.Target = codegen.AlphaCCv2 },
		"seed":     func(s *Source) { s.Run.Seed = 4 },
		"input":    func(s *Source) { s.Run.Input = []int64{1, 3} },
		"edges":    func(s *Source) { s.Run.CollectEdges = true },
		"text":     func(s *Source) { s.Text += " " },
	}
	for name, change := range changes {
		s := testSource()
		change(&s)
		if testKey(s) == base {
			t.Errorf("changing the %s leaves the index key unchanged", name)
		}
	}
	if IndexKey(bytes.Repeat([]byte{8}, 32), []Source{testSource()}) == base {
		t.Error("another binary gives the same index key")
	}
	a, b := testSource(), testSource()
	b.Name = "q"
	if testKey(a, b) == testKey(b, a) || testKey(a, b) == base || testKey() == base {
		t.Error("the batch's order or extent leaves the index key unchanged")
	}
	split1, split2 := testSource(), testSource()
	split1.Text, split2.Text = "ab", "c"
	split3, split4 := testSource(), testSource()
	split3.Text, split4.Text = "a", "bc"
	if testKey(split1, split2) == testKey(split3, split4) {
		t.Error("moving text across a source boundary leaves the index key unchanged")
	}
	same := testSource()
	same.Target.Name = "relabelled"
	same.Target.IntTemps = 14
	same.Run.MaxInsns = interp.DefaultMaxInsns
	if testKey(same) != base {
		t.Error("an equivalent target and run config give a different index key")
	}
}

// TestIndexRoundTripAndMisses: an index entry reads back as stored; a
// damaged, mis-keyed, mis-sized or faulted one is a miss; and index entries
// are never visible through the record or peer surfaces.
func TestIndexRoundTripAndMisses(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	irKey, rec := analyzed(t, "bc")
	src := testKey(testSource())
	want := []IndexEntry{{IRKey: irKey, Sites: len(rec.Vectors)}, {IRKey: irKey, Sites: 0}}
	if _, ok := c.LoadIndex(src, len(want)); ok {
		t.Fatal("hit in an empty cache")
	}
	if err := c.StoreIndex(src, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.LoadIndex(src, len(want)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadIndex = %+v, %t; want %+v", got, ok, want)
	}
	if _, ok := c.LoadIndex(src, len(want)+1); ok {
		t.Fatal("LoadIndex served an entry for another number of sources")
	}
	if _, ok := c.LoadRaw(src); ok {
		t.Fatal("LoadRaw served an index entry")
	}
	if _, ok := c.Load(src); ok {
		t.Fatal("Load served an index entry")
	}
	if err := c.StoreIndex(src, []IndexEntry{{IRKey: "not-a-key"}}); err == nil {
		t.Fatal("StoreIndex accepted a malformed record key")
	}

	good, err := os.ReadFile(c.indexPath(src))
	if err != nil {
		t.Fatal(err)
	}
	other := testKey(Source{Name: "other"})
	damages := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"truncated": func() []byte { return good[:len(good)-5] },
		"bit-flipped": func() []byte {
			b := bytes.Clone(good)
			b[len(b)-3] ^= 0x10
			return b
		},
		"record magic": func() []byte { return bytes.Replace(good, indexMagic[:], magic[:], 1) },
		"stale version": func() []byte {
			return bytes.Replace(good, []byte(FormatVersion), []byte("espa-0"), 1)
		},
		"trailing byte": func() []byte {
			payload := binary.AppendUvarint(nil, uint64(len(want)))
			for _, e := range want {
				payload = append(binary.AppendUvarint(payload, uint64(e.Sites)), e.IRKey...)
			}
			return encodeFile(indexMagic, src, append(payload, 'x'))
		},
		"mis-keyed": func() []byte {
			if err := c.StoreIndex(other, want); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(c.indexPath(other))
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, damage := range damages {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			if err := os.WriteFile(c.indexPath(src), damage(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.LoadIndex(src, len(want)); ok {
				t.Fatal("damaged index entry served as a hit")
			}
			if err := c.StoreIndex(src, want); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.LoadIndex(src, len(want)); !ok || !reflect.DeepEqual(got, want) {
				t.Fatal("a store over the damage did not restore the entry")
			}
		})
	}

	defer faultinject.Activate(faultinject.New(1,
		faultinject.Rule{Site: "artifact.load", Kind: faultinject.Error, Rate: 1},
		faultinject.Rule{Site: "artifact.store", Kind: faultinject.Error, Rate: 1}))()
	if _, ok := c.LoadIndex(src, len(want)); ok {
		t.Fatal("injected load fault did not read as a miss")
	}
	if err := c.StoreIndex(src, want); err == nil {
		t.Fatal("injected store fault not reported")
	}
}

func TestBinaryIdentityIsStable(t *testing.T) {
	id := BinaryIdentity()
	if len(id) != 32 {
		t.Fatalf("BinaryIdentity = %x, want a sha256 of the test binary", id)
	}
	if !bytes.Equal(BinaryIdentity(), id) {
		t.Fatal("BinaryIdentity changed within one process")
	}
}
