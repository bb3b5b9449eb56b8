package artifact

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// storedPack stores n copies of rec under synthetic keys as one pack and
// returns the keys, the frames and the pack's key.
func storedPack(t *testing.T, c *Cache, rec *Record, n int) (keys []string, frames [][]byte, key string) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := syntheticKey(i)
		f, err := Frame(k, rec)
		if err != nil {
			t.Fatal(err)
		}
		keys, frames = append(keys, k), append(frames, f)
	}
	if err := c.StorePack(keys, frames); err != nil {
		t.Fatal(err)
	}
	return keys, frames, PackKey(keys)
}

// TestPackRoundTrip: every record of a stored pack reads back equal, each
// frame is byte for byte the file Store writes for its record, and a pack
// stored twice is the same bytes.
func TestPackRoundTrip(t *testing.T) {
	_, rec := analyzed(t, "bc")
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys, frames, key := storedPack(t, c, rec, 3)
	first, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := c.LoadPack(key)
	if !ok {
		t.Fatal("miss after StorePack")
	}
	for i, k := range keys {
		got, frame, ok := p.Record(i, k)
		if !ok || !reflect.DeepEqual(got, rec) || !bytes.Equal(frame, frames[i]) {
			t.Fatalf("record %d does not read back", i)
		}
		if err := c.Store(k, rec); err != nil {
			t.Fatal(err)
		}
		if file, err := os.ReadFile(c.path(k)); err != nil || !bytes.Equal(file, frame) {
			t.Fatalf("frame %d differs from the record file Store writes", i)
		}
	}
	if _, _, ok := p.Record(0, keys[1]); ok {
		t.Error("a frame served under another record's key")
	}
	if _, _, ok := p.Record(3, keys[0]); ok {
		t.Error("an index past the pack served")
	}
	var none *Pack
	if _, _, ok := none.Record(0, keys[0]); ok {
		t.Error("a nil pack served")
	}
	if err := c.StorePack(keys, frames); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(c.path(key)); err != nil || !bytes.Equal(again, first) {
		t.Error("storing the same pack twice wrote different bytes")
	}
	if PackKey(keys) == PackKey([]string{keys[1], keys[0], keys[2]}) {
		t.Error("the pack key ignores the order of its records")
	}
}

// TestPackIsNeverARecord: a pack shares the record extension, but Load,
// LoadRaw and DecodeRecord never accept it, and LoadPack never accepts a
// record file.
func TestPackIsNeverARecord(t *testing.T) {
	recKey, rec := analyzed(t, "bc")
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, key := storedPack(t, c, rec, 2)
	if _, ok := c.Load(key); ok {
		t.Error("Load served a pack")
	}
	if _, ok := c.LoadRaw(key); ok {
		t.Error("LoadRaw served a pack")
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := DecodeRecord(data, key); ok {
		t.Error("DecodeRecord accepted a pack")
	}
	if err := c.StoreRaw(key, data); err == nil {
		t.Error("StoreRaw accepted a pack")
	}
	if err := c.Store(recKey, rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadPack(recKey); ok {
		t.Error("LoadPack served a record file")
	}
}

// TestPackDamage: damage to a pack's header, or bytes after its last
// frame, is a miss for the whole pack; a damaged or cut frame is a miss for
// its record only, and a cut drops every frame after it.
func TestPackDamage(t *testing.T) {
	_, rec := analyzed(t, "bc")
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys, frames, key := storedPack(t, c, rec, 3)
	good, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	body := len(good) - 3*len(frames[0])
	whole := map[string]func([]byte) []byte{
		"empty":          func([]byte) []byte { return nil },
		"flipped magic":  func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"cut in header":  func(b []byte) []byte { return b[:body-5] },
		"flipped header": func(b []byte) []byte { b[body-5] ^= 0x01; return b },
		"trailing bytes": func(b []byte) []byte { return append(b, 0) },
		"previous version": func(b []byte) []byte {
			return bytes.Replace(b, []byte(FormatVersion), []byte("espa-5"), 1)
		},
		"another pack's key": func(b []byte) []byte {
			other := PackKey(keys[:2])
			return bytes.Replace(b, []byte(key), []byte(other), 1)
		},
		"garbage": func([]byte) []byte { return []byte("not a pack at all") },
	}
	for name, mutate := range whole {
		if err := os.WriteFile(c.path(key), mutate(bytes.Clone(good)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.LoadPack(key); ok {
			t.Errorf("%s: pack served", name)
		}
	}

	partial := map[string]struct {
		mutate func([]byte) []byte
		hits   []bool
	}{
		"flipped frame 1": {func(b []byte) []byte { b[body+len(frames[0])+40] ^= 0x10; return b }, []bool{true, false, true}},
		"cut in frame 1":  {func(b []byte) []byte { return b[:body+len(frames[0])+7] }, []bool{true, false, false}},
		"cut after 2":     {func(b []byte) []byte { return b[:body+2*len(frames[0])] }, []bool{true, true, false}},
		"cut at frames":   {func(b []byte) []byte { return b[:body] }, []bool{false, false, false}},
	}
	for name, d := range partial {
		if err := os.WriteFile(c.path(key), d.mutate(bytes.Clone(good)), 0o644); err != nil {
			t.Fatal(err)
		}
		p, ok := c.LoadPack(key)
		if !ok {
			t.Errorf("%s: the header no longer serves", name)
			continue
		}
		for i, want := range d.hits {
			if _, _, ok := p.Record(i, keys[i]); ok != want {
				t.Errorf("%s: record %d served %t, want %t", name, i, ok, want)
			}
		}
	}
}

// TestPackStoreRejects: StorePack writes nothing for malformed input.
func TestPackStoreRejects(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StorePack([]string{syntheticKey(0)}, nil); err == nil {
		t.Error("a pack with fewer frames than keys stored")
	}
	if err := c.StorePack([]string{strings.Repeat("G", keyLen)}, [][]byte{{1}}); err == nil {
		t.Error("a pack with a malformed key stored")
	}
	if des, _ := os.ReadDir(c.Dir()); len(des) != 0 {
		t.Errorf("rejected stores left %d files", len(des))
	}
	var none *Cache
	if _, ok := none.LoadPack(PackKey(nil)); ok {
		t.Error("a nil cache served a pack")
	}
	if err := none.StorePack([]string{syntheticKey(0)}, [][]byte{{1}}); err != nil {
		t.Errorf("a nil cache's StorePack: %v", err)
	}
}

// TestPackFaultsAndEviction: packs go through the load and store fault
// sites, LoadPack refreshes a pack's age, and eviction counts and removes a
// pack whole.
func TestPackFaultsAndEviction(t *testing.T) {
	_, rec := analyzed(t, "bc")
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1,
		faultinject.Rule{Site: "artifact.load", Kind: faultinject.Error, Rate: 1},
		faultinject.Rule{Site: "artifact.store", Kind: faultinject.Error, Rate: 1})
	deactivate := faultinject.Activate(inj)
	f, err := Frame(syntheticKey(0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StorePack([]string{syntheticKey(0)}, [][]byte{f}); err == nil {
		t.Error("a fired store fault stored a pack")
	}
	deactivate()
	_, _, old := storedPack(t, c, rec, 2)
	deactivate = faultinject.Activate(inj)
	if _, ok := c.LoadPack(old); ok {
		t.Error("a fired load fault served a pack")
	}
	deactivate()

	// Two packs of two records each; with room for one and a quarter
	// packs, an LRU sweep must evict the older pack whole.
	when := time.Now().Add(-time.Hour)
	if err := os.Chtimes(c.path(old), when, when); err != nil {
		t.Fatal(err)
	}
	newer := make([]string, 2)
	frames := make([][]byte, 2)
	for i := range newer {
		newer[i] = syntheticKey(10 + i)
		if frames[i], err = Frame(newer[i], rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StorePack(newer, frames); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(c.path(PackKey(newer)))
	if err != nil {
		t.Fatal(err)
	}
	c.SetMaxBytes(info.Size() + info.Size()/4)
	if _, err := os.Stat(c.path(old)); !os.IsNotExist(err) {
		t.Error("the older pack survived eviction")
	}
	if err := os.Chtimes(c.path(PackKey(newer)), when, when); err != nil {
		t.Fatal("the newer pack was evicted")
	}
	if _, ok := c.LoadPack(PackKey(newer)); !ok {
		t.Fatal("the newer pack does not load")
	}
	if info, err := os.Stat(c.path(PackKey(newer))); err != nil || time.Since(info.ModTime()) > time.Minute {
		t.Error("LoadPack did not refresh the pack's age")
	}
}

// FuzzDecodePack: parsing a pack never panics, and accepts only what
// StorePack writes, or a prefix of it that keeps the whole header: the
// header re-encodes to the file's first bytes, each present frame is the
// bytes where StorePack put it, and a missing frame is the cut end of the
// file, after which no frame is present.
//
// CI runs this for a short budget (go test -fuzz=FuzzDecodePack -fuzztime=20s).
func FuzzDecodePack(f *testing.F) {
	keys := []string{syntheticKey(0), syntheticKey(1)}
	var frames [][]byte
	var size int
	for i, k := range keys {
		frames = append(frames, encodeFile(magic, k, []byte{byte(i), 1, 2}))
		size += len(frames[i])
	}
	key := PackKey(keys)
	pack := appendPackHeader(nil, key, keys, []int{len(frames[0]), len(frames[1])})
	for _, fr := range frames {
		pack = append(pack, fr...)
	}
	f.Add(pack)
	f.Add(pack[:len(pack)-size+len(frames[0])+4])
	f.Add(appendPackHeader(nil, PackKey(nil), nil, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		key, p, ok := decodePack(data)
		if !ok {
			return
		}
		header := appendPackHeader(nil, key, p.keys, p.lens)
		if !bytes.HasPrefix(data, header) {
			t.Fatalf("accepted header re-encodes differently:\n got %x\nwant prefix of %x", header, data)
		}
		off := len(header)
		for i, fr := range p.frames {
			if fr == nil {
				if len(data)-off >= p.lens[i] {
					t.Fatalf("frame %d dropped with %d of its %d bytes present", i, len(data)-off, p.lens[i])
				}
				for j, later := range p.frames[i+1:] {
					if later != nil {
						t.Fatalf("frame %d present after cut frame %d", i+1+j, i)
					}
				}
				return
			}
			if !bytes.Equal(fr, data[off:off+p.lens[i]]) {
				t.Fatalf("frame %d is not the bytes StorePack puts there", i)
			}
			off += p.lens[i]
		}
		if off != len(data) {
			t.Fatalf("accepted %d bytes after the last frame", len(data)-off)
		}
	})
}
