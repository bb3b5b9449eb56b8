package serve

import (
	"container/list"
	"sync"

	"repro/internal/features"
)

// programImage is what the service keeps from one source submission: its
// branch sites' feature vectors (each naming its site in Vector.Ref), ready
// to be predicted again without re-compiling.
type programImage struct {
	Name    string
	Vectors []features.Vector
}

// lru is a mutex-guarded LRU cache from source hash to compiled image.
type lru struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	img *programImage
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lru) get(key string) (*programImage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).img, true
}

func (c *lru) add(key string, img *programImage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).img = img
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, img: img})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
