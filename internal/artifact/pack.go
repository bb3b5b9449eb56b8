package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/faultinject"
)

// A pack stores the records of a batch analyzed together as one file, so a
// batch costs one file create instead of one per record. It is named by
// PackKey over its records' keys and lives beside the records as
// dir/<pack key>.espa:
//
//	magic "ESPK"
//	format-version string   (length-prefixed; must equal FormatVersion)
//	pack key hex string     (length-prefixed; must equal the file's name key
//	                         and PackKey of the keys the header lists)
//	header sha256           (32 bytes)
//	header                  (length-prefixed: uvarint n, then n × (record
//	                         key, uvarint frame length))
//	frames                  (n record frames, back to back)
//
// Each frame is byte for byte the file Store would write for its record, so
// it is verified and decoded exactly like a record file. A frame that fails
// its checks, or that a torn tail cut off, is a miss for that record only; a
// header that fails its checks is a miss for the whole pack. All lengths are
// minimal uvarints and nothing may follow the last frame, so a pack is
// accepted only in the form StorePack writes it, or a prefix of that form
// that keeps the whole header. A pack shares the record extension, so
// eviction and SetMaxBytes count it like any entry and evict it whole; its
// magic keeps Load and LoadRaw, and so the peer protocol, from ever
// serving it.

var packMagic = [4]byte{'E', 'S', 'P', 'K'}

// PackKey returns the name of the pack holding the records under keys, in
// order: sha256 over the pack magic, FormatVersion and the keys.
func PackKey(keys []string) string {
	h := sha256.New()
	h.Write(packMagic[:])
	io.WriteString(h, FormatVersion)
	h.Write([]byte{0})
	for _, k := range keys {
		io.WriteString(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Frame returns the framed record file Store writes for rec under key,
// which is also the record's frame in a pack.
func Frame(key string, rec *Record) ([]byte, error) {
	payload, err := encodeRecord(rec)
	if err != nil {
		return nil, err
	}
	return encodeFile(magic, key, payload), nil
}

// Pack is a loaded pack: the record keys it lists, in order, and the frames
// it still holds.
type Pack struct {
	keys   []string
	lens   []int    // frame lengths the header lists
	frames [][]byte // nil where a torn tail cut the frame off
}

// Record returns the record of frame i when the pack lists it under key and
// the frame verifies, along with the frame's bytes. A nil pack, an index out
// of range, another key, a cut frame and a damaged one are all misses.
func (p *Pack) Record(i int, key string) (*Record, []byte, bool) {
	if p == nil || i < 0 || i >= len(p.keys) || p.keys[i] != key || p.frames[i] == nil {
		return nil, nil, false
	}
	rec, ok := DecodeRecord(p.frames[i], key)
	if !ok {
		return nil, nil, false
	}
	return rec, p.frames[i], true
}

// LoadPack returns the pack stored under key, or ok=false when its header
// is missing or fails any check; frames are verified one by one, by Record.
func (c *Cache) LoadPack(key string) (*Pack, bool) {
	if c == nil || faultinject.Fire(siteLoad) != nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	got, p, ok := decodePack(data)
	if !ok || got != key {
		return nil, false
	}
	c.touch(c.path(key))
	return p, true
}

// StorePack writes frames, as Frame returns them, under keys as one pack
// named PackKey(keys), atomically like Store.
func (c *Cache) StorePack(keys []string, frames [][]byte) error {
	if c == nil {
		return nil
	}
	if err := faultinject.Fire(siteStore); err != nil {
		return err
	}
	key := PackKey(keys)
	if len(frames) != len(keys) {
		return fmt.Errorf("artifact: pack store: %d frames for %d keys", len(frames), len(keys))
	}
	lens := make([]int, len(frames))
	size := 0
	for i, f := range frames {
		if !isKey(keys[i]) {
			return fmt.Errorf("artifact: pack store: malformed record key in pack %.16s", key)
		}
		lens[i] = len(f)
		size += len(f)
	}
	data := appendPackHeader(make([]byte, 0, 128+len(keys)*(keyLen+3)+size), key, keys, lens)
	for _, f := range frames {
		data = append(data, f...)
	}
	if err := c.writeAtomic(c.path(key), data); err != nil {
		return err
	}
	c.gc()
	return nil
}

// appendPackHeader appends everything of a pack before its frames.
func appendPackHeader(b []byte, key string, keys []string, lens []int) []byte {
	header := binary.AppendUvarint(nil, uint64(len(keys)))
	for i, k := range keys {
		header = append(header, k...)
		header = binary.AppendUvarint(header, uint64(lens[i]))
	}
	sum := sha256.Sum256(header)
	b = append(b, packMagic[:]...)
	b = appendLenPrefixed(b, []byte(FormatVersion))
	b = appendLenPrefixed(b, []byte(key))
	b = append(b, sum[:]...)
	return appendLenPrefixed(b, header)
}

// decodePack parses a pack file, returning the key it names. Frames are
// sliced from data, not copied or verified.
func decodePack(data []byte) (string, *Pack, bool) {
	if !bytes.HasPrefix(data, packMagic[:]) {
		return "", nil, false
	}
	r := &recordReader{b: data[len(packMagic):]}
	version := r.lenPrefixed()
	key := r.lenPrefixed()
	if r.bad || string(version) != FormatVersion || !isKey(string(key)) || len(r.b) < sha256.Size {
		return "", nil, false
	}
	sum := r.b[:sha256.Size]
	r.b = r.b[sha256.Size:]
	header := r.lenPrefixed()
	if got := sha256.Sum256(header); r.bad || !bytes.Equal(got[:], sum) {
		return "", nil, false
	}
	body := r.b

	h := &recordReader{b: header}
	n := h.count(keyLen + 1)
	p := &Pack{keys: make([]string, n), lens: make([]int, n), frames: make([][]byte, n)}
	for i := range p.keys {
		if h.bad || len(h.b) < keyLen || !isKey(string(h.b[:keyLen])) {
			return "", nil, false
		}
		p.keys[i] = string(h.b[:keyLen])
		h.b = h.b[keyLen:]
		l := h.uvarint()
		if l > math.MaxInt32 {
			h.fail()
		}
		p.lens[i] = int(l)
	}
	if h.bad || len(h.b) != 0 || PackKey(p.keys) != string(key) {
		return "", nil, false
	}
	for i, l := range p.lens {
		if l > len(body) {
			break // a torn tail: this frame and every later one are gone
		}
		p.frames[i], body = body[:l], body[l:]
	}
	if (n == 0 || p.frames[n-1] != nil) && len(body) != 0 {
		return "", nil, false // bytes after the last frame
	}
	return string(key), p, true
}
