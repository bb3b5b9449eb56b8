package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultVnodes is the virtual-node count per replica. 64 points per
// member keeps the expected keyspace imbalance across a handful of
// replicas within a few percent without making membership changes costly.
const DefaultVnodes = 64

// Ring is a consistent-hash ring over named replicas. Each member owns
// vnodes points on a 64-bit circle; a key belongs to the member owning the
// first point at or clockwise of the key's hash. Adding or removing a
// member therefore moves only that member's share (≈1/N) of the keyspace.
//
// Members can be marked drained: they keep their ring points (so the
// keyspace does not reshuffle during a graceful drain) but Lookup and
// Sequence skip over them.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	points  []ringPoint // sorted by hash
	drained map[string]bool
	members []string // sorted, for deterministic iteration
}

type ringPoint struct {
	hash uint64
	name string
}

// NewRing returns an empty ring; vnodes <= 0 selects DefaultVnodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, drained: make(map[string]bool)}
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op (its drained mark is preserved).
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m == name {
			return
		}
	}
	r.members = append(r.members, name)
	sort.Strings(r.members)
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hashString(fmt.Sprintf("%s#%d", name, i)), name})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its virtual nodes entirely.
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.points[:0]
	for _, p := range r.points {
		if p.name != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
	delete(r.drained, name)
	for i, m := range r.members {
		if m == name {
			r.members = append(r.members[:i], r.members[i+1:]...)
			break
		}
	}
}

// SetDrained marks (or clears) a member as drained without moving its
// keyspace share. Unknown names are remembered, so a drain mark set before
// Add still holds.
func (r *Ring) SetDrained(name string, drained bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if drained {
		r.drained[name] = true
	} else {
		delete(r.drained, name)
	}
}

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.members...)
}

// Lookup returns the non-drained owner of key, or "" if the ring is empty
// or fully drained.
func (r *Ring) Lookup(key string) string {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns up to n distinct non-drained members in ring order
// starting from key's owner — the failover candidate list. Every live
// member appears at most once; drained members never appear.
func (r *Ring) Sequence(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	var out []string
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.name] || r.drained[p.name] {
			continue
		}
		seen[p.name] = true
		out = append(out, p.name)
	}
	return out
}

// hashString is FNV-1a 64 finished with a splitmix64 avalanche, so nearby
// inputs (replica#0, replica#1, ...) land uniformly on the circle.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
