// Package artifact is a persistent, content-addressed cache for derived
// program analyses. Profiling a corpus program is deterministic — the same
// IR under the same interpreter configuration always produces the same
// profile — so the (profile, feature vectors) pair can be stored on disk
// keyed by a hash of its inputs and reloaded by any later process, making
// warm corpus analysis skip the interpreter entirely.
//
// A cache entry is one file, dir/<key>.espa:
//
//	magic "ESPA"
//	format-version string   (length-prefixed; must equal FormatVersion)
//	key hex string          (length-prefixed; must equal the file's name key)
//	payload sha256          (32 bytes)
//	payload                 (the Record; see record.go for its layout)
//
// Every field is verified on load and any mismatch — truncation, corruption,
// a stale format version, a file renamed to the wrong key — is treated as a
// cache miss, never an error: the caller recomputes and overwrites. Writes
// go to a temp file in the cache directory which is renamed into place, so
// concurrent readers observe only the old entry, the new entry, or a miss.
// Entries are not fsynced: a crash may leave an empty, truncated or garbage
// file under an entry's name, but the framing's checksum turns any such
// file into a miss, so a torn entry is never accepted.
//
// A batch of records analyzed together can instead be stored as one pack
// (see pack.go), dir/<pack key>.espa under the magic "ESPK": a framed
// header listing each record's key and frame length, then the records'
// frames, each byte for byte the file above. A damaged or cut frame is a
// miss for its record only, and a pack is evicted whole. Beside the
// records, dir/<index key>.espi files form a source index (see index.go):
// framed the same way under the magic "ESPI", each maps a batch of compile
// inputs to their records' keys, so a warm caller that starts from source
// need not compile it. Packs and index entries count toward SetMaxBytes
// and are never served to peers.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/interp"
	"repro/internal/ir"
)

// FormatVersion names the encoding of both the cache key and the payload.
// Bump it whenever cached bytes could change meaning: the canonical IR
// encoding (ir.AppendCanonical), the observable semantics of the
// interpreter or feature extractor, or the Record/Profile/Vector types
// themselves. A bump invalidates every existing entry (old files fail the
// version check and recompute); forgetting one serves stale results.
const FormatVersion = "espa-6" // espa-6: linked programs key and store only their own code

var (
	magic      = [4]byte{'E', 'S', 'P', 'A'}
	indexMagic = [4]byte{'E', 'S', 'P', 'I'}
)

// Fault-injection sites: a fired load behaves as a miss, a fired store
// drops the write. Both are invisible to correctness — the cache is an
// optimization — which is exactly what the chaos tests assert.
var (
	siteLoad  = faultinject.Register("artifact.load")
	siteStore = faultinject.Register("artifact.store")
)

// Record is the cached analysis of one program: everything core.Analyze
// derives from executing it, minus what is recomputed from the IR on a hit
// (the site structures, which hold pointers into the live program).
type Record struct {
	Profile *interp.Profile
	Vectors []features.Vector
	// Image is, for the record of a program linked against a library
	// image, the image's ID, and "" otherwise. A record with an Image holds
	// only the vectors of the program's own functions (NewRecord), and
	// ImageFor names the image whose vectors merge with them.
	Image string
}

// NewRecord returns the record of prog's analysis: its profile and own,
// the vectors of its own functions in site order (features.ExtractOwn),
// naming prog's library image when it has one.
func NewRecord(prog *ir.Program, prof *interp.Profile, own []features.Vector) *Record {
	rec := &Record{Profile: prof, Vectors: own}
	if prog.Image != nil {
		rec.Image = prog.Image.ID
	}
	return rec
}

// ImageFor returns the image whose vectors merge with the record's own
// (features.EachLinked) into the vectors of a program linked against img
// (nil when there is none). A record that names no image needs none
// (lib == nil); one that names img needs img; and one that names any other
// image, one this process did not build for the program, is unusable
// (ok=false).
func (r *Record) ImageFor(img *ir.Image) (lib *ir.Image, ok bool) {
	switch {
	case r.Image == "":
		return nil, true
	case img == nil || img.ID != r.Image:
		return nil, false
	}
	return img, true
}

// Cache is an open cache directory. The zero value is not usable; a nil
// *Cache is valid everywhere and never hits, so "no cache" needs no
// branching at call sites.
type Cache struct {
	dir string

	// maxBytes bounds the directory's total entry size; 0 disables GC.
	maxBytes atomic.Int64
	gcMu     sync.Mutex // serializes eviction sweeps
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// DefaultDir resolves a cache directory from an explicit flag value, the
// ESPCACHE_DIR environment variable, or the default ".espcache", in that
// order.
func DefaultDir(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if env := os.Getenv("ESPCACHE_DIR"); env != "" {
		return env
	}
	return ".espcache"
}

// Key returns the content address of one analysis: sha256 over the format
// version, the canonical IR bytes, and every Config field that can alter
// execution, in fully-defaulted (Canonical) form so a zero config and an
// explicit-default config address the same entry. For a program linked
// against a library image the IR part is the image's ID, a digest of its
// IR computed once per image, followed by the program's canonical bytes
// without the image's functions: what the marked program guarantees about
// the library copies is exactly what the ID names.
func Key(prog *ir.Program, cfg interp.Config) string {
	h := sha256.New()
	io.WriteString(h, FormatVersion)
	if img := prog.Image; img != nil {
		fmt.Fprintf(h, "\x01%s\x00", img.ID)
		h.Write(ir.AppendCanonical(nil, &ir.Program{Name: prog.Name, Funcs: prog.Own(), Globals: prog.Globals}))
	} else {
		h.Write([]byte{0})
		h.Write(ir.AppendCanonical(nil, prog))
	}
	c := cfg.Canonical()
	fmt.Fprintf(h, "\x00seed=%d maxinsns=%d memwords=%d depth=%d edges=%t input=%v",
		c.Seed, c.MaxInsns, c.MemWords, c.MaxCallDepth, c.CollectEdges, c.Input)
	return hex.EncodeToString(h.Sum(nil))
}

// File extensions of records and of source-index entries.
const (
	recordExt = ".espa"
	indexExt  = ".espi"
)

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+recordExt)
}

// Load returns the record stored under key, or ok=false on any kind of
// miss: absent, truncated, corrupt, stale version, or mis-keyed files all
// recompute rather than error.
func (c *Cache) Load(key string) (*Record, bool) {
	if c == nil {
		return nil, false
	}
	_, payload, ok := c.read(c.path(key), magic, key)
	if !ok {
		return nil, false
	}
	rec, ok := decodeRecord(payload)
	if !ok {
		return nil, false
	}
	c.touch(c.path(key))
	return rec, true
}

// read reads the entry file at path and verifies its framing against magic
// and key, returning the whole file and its payload. A fired load fault,
// an unreadable file and a failed check are all misses.
func (c *Cache) read(path string, magic [4]byte, key string) (data, payload []byte, ok bool) {
	if faultinject.Fire(siteLoad) != nil {
		return nil, nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false
	}
	payload, ok = verify(data, magic, key)
	return data, payload, ok
}

// DecodeRecord verifies a framed cache file (magic, format version, key
// echo, payload checksum) against key and decodes its payload. It is the
// trust boundary for bytes that arrived over the network: a cluster peer's
// response goes through the exact same checks as a local file, so a
// corrupt or mis-keyed peer payload is a miss, never a poisoned entry.
func DecodeRecord(data []byte, key string) (*Record, bool) {
	payload, ok := verify(data, magic, key)
	if !ok {
		return nil, false
	}
	return decodeRecord(payload)
}

// LoadRaw returns the verified framed bytes of the entry under key — the
// whole on-disk file, checksum and all — for the peer protocol to ship
// without re-encoding. Verification happens before serving so a replica
// never forwards a torn or mis-keyed file to a peer.
func (c *Cache) LoadRaw(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	data, _, ok := c.read(c.path(key), magic, key)
	if !ok {
		return nil, false
	}
	c.touch(c.path(key))
	return data, true
}

// StoreRaw installs framed bytes received from a peer, verifying the full
// framing against key first so a malicious or corrupt peer response can
// never land on disk. The write is atomic exactly like Store's.
func (c *Cache) StoreRaw(key string, data []byte) error {
	if c == nil {
		return nil
	}
	if _, ok := verify(data, magic, key); !ok {
		return fmt.Errorf("artifact: raw store: payload fails verification for key %.16s", key)
	}
	if err := faultinject.Fire(siteStore); err != nil {
		return err
	}
	if err := c.writeAtomic(c.path(key), data); err != nil {
		return err
	}
	c.gc()
	return nil
}

// Store writes the record under key atomically. A failed store leaves no
// partial entry; the error is reported so callers can warn, but correctness
// never depends on it.
func (c *Cache) Store(key string, rec *Record) error {
	if c == nil {
		return nil
	}
	if err := faultinject.Fire(siteStore); err != nil {
		return err
	}
	data, err := Frame(key, rec)
	if err != nil {
		return err
	}
	if err := c.writeAtomic(c.path(key), data); err != nil {
		return err
	}
	c.gc()
	return nil
}

// writeAtomic installs data at path by renaming a fully written temp file
// into place. It does not fsync: the checksum, not durability, is what keeps
// a crash-damaged file from being accepted (see the package doc).
func (c *Cache) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, ".espa-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// SetMaxBytes bounds the total size of cache entries; when a store pushes
// the directory past the bound, the least-recently-used entries (by
// modification time, which Load hits refresh) are evicted until it fits.
// Zero or negative disables eviction. Safe to call concurrently with loads
// and stores.
func (c *Cache) SetMaxBytes(n int64) {
	if c == nil {
		return
	}
	c.maxBytes.Store(n)
	c.gc()
}

// MaxBytes returns the configured size bound (0 = unbounded).
func (c *Cache) MaxBytes() int64 {
	if c == nil {
		return 0
	}
	return c.maxBytes.Load()
}

// touch refreshes the timestamps of the entry file at path on a hit so LRU
// eviction keeps hot entries. Best-effort: a racing eviction or read-only
// directory just means the entry ages normally.
func (c *Cache) touch(path string) {
	if c.maxBytes.Load() <= 0 {
		return
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// gc evicts least-recently-used entries, records and source-index entries
// alike, until the directory fits the configured bound. Eviction is a plain
// unlink of a fully-written entry: a reader that already opened the file
// keeps its data (POSIX semantics),
// and a reader that races the unlink sees a clean miss — never a torn
// entry. Temp files from in-flight writes are left alone.
func (c *Cache) gc() {
	limit := c.maxBytes.Load()
	if limit <= 0 {
		return
	}
	c.gcMu.Lock()
	defer c.gcMu.Unlock()

	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); e.IsDir() || ext != recordExt && ext != indexExt {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // racing eviction or store; skip
		}
		files = append(files, entry{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= limit {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		return files[i].mtime.Before(files[j].mtime)
	})
	for _, f := range files {
		if total <= limit {
			break
		}
		if os.Remove(filepath.Join(c.dir, f.name)) == nil {
			total -= f.size
		}
	}
}

func encodeFile(magic [4]byte, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b := append([]byte(nil), magic[:]...)
	b = appendLenPrefixed(b, []byte(FormatVersion))
	b = appendLenPrefixed(b, []byte(key))
	b = append(b, sum[:]...)
	return append(b, payload...)
}

func appendLenPrefixed(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// verify checks magic, version, key echo, and payload checksum, returning
// the payload bytes when everything matches.
func verify(data []byte, magic [4]byte, key string) ([]byte, bool) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, false
	}
	rest := data[len(magic):]
	version, rest, ok := readLenPrefixed(rest)
	if !ok || string(version) != FormatVersion {
		return nil, false
	}
	gotKey, rest, ok := readLenPrefixed(rest)
	if !ok || string(gotKey) != key {
		return nil, false
	}
	if len(rest) < sha256.Size {
		return nil, false
	}
	payload := rest[sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], rest[:sha256.Size]) {
		return nil, false
	}
	return payload, true
}

func readLenPrefixed(b []byte) (s, rest []byte, ok bool) {
	n, width := binary.Uvarint(b)
	if width <= 0 || n > uint64(len(b)-width) {
		return nil, nil, false
	}
	return b[width : width+int(n)], b[width+int(n):], true
}
