package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/codegen"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/ir"
)

// The source index lets a caller that starts from source go straight to
// the records its programs analyzed to, without compiling the sources or
// rebuilding their sites. One index entry covers a batch of sources
// analyzed together and lists, per source in order, the record key and
// site count; the batch's records are stored as one pack, named by
// PackKey over those keys. The batch, not the source, is the unit because
// creating a file is the dearest step of a store.
//
// The records stay the source of truth: an index entry only says where to
// look, and anything that does not check out (a missing or damaged entry,
// an evicted pack, a damaged frame, a record with the wrong number of
// vectors) sends that source down the full path, after which the caller
// rewrites the pack and the entry.

// Source is one compile input: everything besides the running binary that
// determines the program a source compiles to and how it runs.
type Source struct {
	Name     string
	Language ir.Language
	Target   codegen.Target
	Run      interp.Config
	Text     string
}

// IndexEntry is what the source index records for one Source.
type IndexEntry struct {
	// IRKey is the Key of the compiled program under Source.Run.
	IRKey string
	// Sites is the program's branch-site count. A record under IRKey must
	// hold exactly this many feature vectors to be used.
	Sites int
}

// binaryIdentity hashes the running executable once per process.
var binaryIdentity = sync.OnceValue(func() []byte {
	path, err := os.Executable()
	if err != nil {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil
	}
	return h.Sum(nil)
})

// BinaryIdentity returns the sha256 of the running executable, computed
// once per process, or nil when the executable cannot be read. It stands
// for the compiler, the linked runtime library and the feature extractor
// together: index keys include it because a source only names a program
// through the binary that compiles it, and FormatVersion is not bumped for
// every compiler change.
func BinaryIdentity() []byte { return binaryIdentity() }

// IndexKey returns the source index key of srcs, in order, as compiled and
// analyzed by the binary whose BinaryIdentity is id: sha256 over
// FormatVersion, id, and each source's name, language, canonical target,
// canonical run config and text.
func IndexKey(id []byte, srcs []Source) string {
	h := sha256.New()
	io.WriteString(h, FormatVersion)
	h.Write([]byte{0})
	h.Write(id)
	for _, s := range srcs {
		c := s.Run.Canonical()
		fmt.Fprintf(h, "\x00name=%q lang=%q target=%#v seed=%d maxinsns=%d memwords=%d depth=%d edges=%t input=%v text=%d\x00",
			s.Name, s.Language, s.Target.Canonical(), c.Seed, c.MaxInsns, c.MemWords, c.MaxCallDepth, c.CollectEdges, c.Input, len(s.Text))
		io.WriteString(h, s.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (c *Cache) indexPath(key string) string {
	return filepath.Join(c.dir, key+indexExt)
}

// LoadIndex returns the n index entries stored under key, or ok=false on
// any kind of miss, exactly as Load treats records; an entry listing any
// other number of sources is a miss too.
func (c *Cache) LoadIndex(key string, n int) ([]IndexEntry, bool) {
	if c == nil {
		return nil, false
	}
	path := c.indexPath(key)
	_, payload, ok := c.read(path, indexMagic, key)
	if !ok {
		return nil, false
	}
	entries, ok := decodeIndex(payload, n)
	if !ok {
		return nil, false
	}
	c.touch(path)
	return entries, true
}

// StoreIndex writes entries under key atomically, like Store.
func (c *Cache) StoreIndex(key string, entries []IndexEntry) error {
	if c == nil {
		return nil
	}
	if err := faultinject.Fire(siteStore); err != nil {
		return err
	}
	payload := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		if e.Sites < 0 || !isKey(e.IRKey) {
			return fmt.Errorf("artifact: index store: malformed entry for key %.16s", key)
		}
		payload = binary.AppendUvarint(payload, uint64(e.Sites))
		payload = append(payload, e.IRKey...)
	}
	if err := c.writeAtomic(c.indexPath(key), encodeFile(indexMagic, key, payload)); err != nil {
		return err
	}
	c.gc()
	return nil
}

// keyLen is the length of a Key.
const keyLen = 2 * sha256.Size

// decodeIndex decodes a payload written by StoreIndex that lists n
// entries: a minimal uvarint count, then per entry a minimal uvarint site
// count and a key, and nothing after.
func decodeIndex(payload []byte, n int) ([]IndexEntry, bool) {
	r := &recordReader{b: payload}
	if r.uvarint() != uint64(n) || r.bad {
		return nil, false
	}
	entries := make([]IndexEntry, n)
	for i := range entries {
		sites := r.uvarint()
		if r.bad || sites > math.MaxInt || len(r.b) < keyLen || !isKey(string(r.b[:keyLen])) {
			return nil, false
		}
		entries[i] = IndexEntry{IRKey: string(r.b[:keyLen]), Sites: int(sites)}
		r.b = r.b[keyLen:]
	}
	return entries, len(r.b) == 0
}

// isKey reports whether s has the shape Key returns: 64 lowercase hex
// digits.
func isKey(s string) bool {
	if len(s) != keyLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
