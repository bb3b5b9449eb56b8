// Package faultinject is a deterministic fault-injection harness for chaos
// testing the serving stack. Production code marks interesting points —
// cache lookups, compiles, queue submissions, model forward passes — as
// named sites and calls Fire at each; when no injector is active a Fire is a
// single atomic load, so the hooks cost nothing in production and need no
// build tags.
//
// Tests activate an Injector built from seed-scheduled rules. Whether a
// given hit of a given site faults is a pure function of (seed, site, rule,
// hit number), so a chaos run is reproducible: the same seed injects the
// same faults at the same points of the same request interleaving.
//
// Three fault kinds cover the failure modes a resilient server must absorb:
// errors (dependency failure), latency (slow dependency, deadline
// pressure), and panics (programming error in a handler or worker).
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by Error faults. Injected
// failures wrap it, so tests can tell a synthetic failure from a real one.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind classifies a fault.
type Kind int

// Fault kinds.
const (
	// Error makes Fire return an error.
	Error Kind = iota
	// Latency makes Fire sleep for Delay, then succeed.
	Latency
	// Panic makes Fire panic with a *Panicked value.
	Panic
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Panic:
		return "panic"
	}
	return "error"
}

// Panicked is the value an injected panic carries, so recovery middleware
// and tests can attribute the panic to the harness.
type Panicked struct {
	Site string
	Hit  int64
}

// Error renders the panic value.
func (p *Panicked) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", p.Site, p.Hit)
}

// Rule schedules one fault at one site.
type Rule struct {
	// Site is the registered site name the rule applies to.
	Site string
	// Kind selects the fault behaviour.
	Kind Kind
	// Err is returned by Error faults (wrapped around ErrInjected when
	// nil).
	Err error
	// Delay is the sleep of Latency faults.
	Delay time.Duration
	// Rate is the deterministic per-hit firing probability in [0, 1]: hit n
	// fires iff a hash of (seed, site, rule, n) falls below Rate. Ignored
	// when Hits is set.
	Rate float64
	// Hits lists explicit 1-based hit numbers that fire (exact schedules
	// for targeted tests). When set, Rate is ignored.
	Hits []int64
}

func (r *Rule) fires(seed uint64, rule int, n int64) bool {
	if len(r.Hits) > 0 {
		for _, h := range r.Hits {
			if h == n {
				return true
			}
		}
		return false
	}
	if r.Rate <= 0 {
		return false
	}
	if r.Rate >= 1 {
		return true
	}
	x := mix(seed ^ strHash(r.Site) ^ uint64(rule)*0x9E3779B97F4A7C15 ^ uint64(n))
	return float64(x>>11)/(1<<53) < r.Rate
}

// mix is splitmix64: a full-avalanche mixer, so consecutive hit numbers
// decorrelate.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// strHash is FNV-1a.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Injector is a configured set of rules. One injector may be active per
// process at a time.
type Injector struct {
	seed  uint64
	rules map[string][]Rule
	hits  sync.Map // site → *atomic.Int64: total Fire calls
	fired sync.Map // site → *atomic.Int64: faults actually injected
}

// New builds an injector from seed-scheduled rules.
func New(seed uint64, rules ...Rule) *Injector {
	inj := &Injector{seed: seed, rules: make(map[string][]Rule)}
	for _, r := range rules {
		inj.rules[r.Site] = append(inj.rules[r.Site], r)
	}
	return inj
}

func (inj *Injector) counter(m *sync.Map, site string) *atomic.Int64 {
	if c, ok := m.Load(site); ok {
		return c.(*atomic.Int64)
	}
	c, _ := m.LoadOrStore(site, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// Hits reports how many times the site fired through this injector.
func (inj *Injector) Hits(site string) int64 { return inj.counter(&inj.hits, site).Load() }

// Fired reports how many faults the injector actually injected at the site.
func (inj *Injector) Fired(site string) int64 { return inj.counter(&inj.fired, site).Load() }

// fire runs the site's rules against the next hit number.
func (inj *Injector) fire(site string) error {
	rules := inj.rules[site]
	n := inj.counter(&inj.hits, site).Add(1)
	for ri := range rules {
		r := &rules[ri]
		if !r.fires(inj.seed, ri, n) {
			continue
		}
		inj.counter(&inj.fired, site).Add(1)
		switch r.Kind {
		case Latency:
			time.Sleep(r.Delay)
			return nil
		case Panic:
			panic(&Panicked{Site: site, Hit: n})
		default:
			if r.Err != nil {
				return fmt.Errorf("%s: %w", site, fmt.Errorf("%v: %w", r.Err, ErrInjected))
			}
			return fmt.Errorf("%s: %w", site, ErrInjected)
		}
	}
	return nil
}

// active is the process-global injector; nil means every Fire is a no-op.
var active atomic.Pointer[Injector]

// Activate installs inj as the process-global injector and returns the
// function that removes it. Tests defer the deactivation.
func Activate(inj *Injector) (deactivate func()) {
	active.Store(inj)
	return func() { active.Store(nil) }
}

// Fire is called by production code at a named site. With no active
// injector it costs one atomic load and returns nil; otherwise it applies
// the injector's rules for the site — returning an injected error, sleeping
// an injected latency, or panicking an injected panic.
func Fire(site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.fire(site)
}

// registry tracks every site name production code declared, so chaos tests
// can assert they cover all of them.
var registry sync.Map

// Register declares a site name and returns it, for use in var blocks:
//
//	var siteCompile = faultinject.Register("serve.compile")
func Register(site string) string {
	registry.Store(site, true)
	return site
}

// Sites returns every registered site name, sorted.
func Sites() []string {
	var out []string
	registry.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}
