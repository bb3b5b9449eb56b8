package artifact_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
)

// countingCache counts the loads that hit and the stores AnalyzeCached makes.
type countingCache struct {
	*artifact.Cache
	hits, stores int
}

func (c *countingCache) Load(key string) (*artifact.Record, bool) {
	rec, ok := c.Cache.Load(key)
	if ok {
		c.hits++
	}
	return rec, ok
}

func (c *countingCache) Store(key string, rec *artifact.Record) error {
	c.stores++
	return c.Cache.Store(key, rec)
}

// TestCrashLeftoversAreMisses: entries are written without fsync, so a
// crash can leave an empty, truncated or garbage file under an entry's
// final name. Each must be a Load and LoadRaw miss, AnalyzeCached must
// recompute the same analysis, and its store must replace the file with a
// valid entry.
func TestCrashLeftoversAreMisses(t *testing.T) {
	e, _ := corpus.ByName("bc")
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(prog, e.Language, e.RunConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.Key(prog, e.RunConfig())
	leftovers := map[string]func(good []byte) []byte{
		"zero-length": func([]byte) []byte { return nil },
		"truncated":   func(good []byte) []byte { return good[:len(good)/2] },
		"bit-flipped": func(good []byte) []byte {
			bad := append([]byte(nil), good...)
			bad[len(bad)-10] ^= 0x04
			return bad
		},
	}
	for name, damage := range leftovers {
		t.Run(name, func(t *testing.T) {
			cache, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c := &countingCache{Cache: cache}
			if _, err := core.AnalyzeCached(c, prog, e.Language, e.RunConfig()); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(cache.Dir(), key+".espa")
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.Load(key); ok {
				t.Fatal("Load accepted a crash leftover")
			}
			if _, ok := cache.LoadRaw(key); ok {
				t.Fatal("LoadRaw accepted a crash leftover")
			}
			*c = countingCache{Cache: cache}
			got, err := core.AnalyzeCached(c, prog, e.Language, e.RunConfig())
			if err != nil {
				t.Fatal(err)
			}
			if c.hits != 0 || c.stores != 1 {
				t.Fatalf("AnalyzeCached over a leftover: %d hits, %d stores; want a recompute and one store", c.hits, c.stores)
			}
			if !reflect.DeepEqual(got.Profile, want.Profile) || !reflect.DeepEqual(got.Vectors, want.Vectors) {
				t.Fatal("recomputed analysis differs from a fresh Analyze")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(good) {
				t.Fatal("the store did not overwrite the leftover with the entry")
			}
			if _, ok := cache.LoadRaw(key); !ok {
				t.Fatal("miss after the store replaced the leftover")
			}
		})
	}
}
