package main

import (
	"sync"
	"time"
)

// layers accumulates the traced run's per-layer figures: time spent in each
// layer's public calls, counts of the work they did, and how much of the
// traced wall time those spans cover. A nil *layers is the untraced run and
// every method is a no-op, so the untraced paths pay nothing.
type layers struct {
	mu      sync.Mutex
	busy    map[string]time.Duration
	counts  map[string]float64
	samples map[string][]float64
	// base is the traced time the spans should account for (the summed
	// wall time of every traced worker or request); covered is the part of
	// it inside some span.
	base, covered time.Duration
}

func newLayers() *layers {
	return &layers{busy: map[string]time.Duration{}, counts: map[string]float64{}, samples: map[string][]float64{}}
}

// span records one call into a layer that began at start.
func (l *layers) span(name string, start time.Time) {
	if l == nil {
		return
	}
	d := time.Since(start)
	l.mu.Lock()
	l.busy[name] += d
	l.covered += d
	l.mu.Unlock()
}

// phase records a call that is a whole traced step on its own: it is both
// a layer span and the base that span accounts for.
func (l *layers) phase(name string, start time.Time) {
	if l == nil {
		return
	}
	l.addBase(time.Since(start))
	l.span(name, start)
}

// count adds v to a layer counter.
func (l *layers) count(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.counts[name] += v
	l.mu.Unlock()
}

// sample records one observation of a distribution (a span duration).
func (l *layers) sample(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// addBase records traced wall time the spans are meant to account for.
func (l *layers) addBase(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.base += d
	l.mu.Unlock()
}

// addCovered records time accounted for by spans measured elsewhere (the
// server's own request traces).
func (l *layers) addCovered(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.covered += d
	l.mu.Unlock()
}

// ms is a layer's accumulated busy time in milliseconds.
func (l *layers) ms(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.busy[name]) / 1e6
}

// n is a layer counter's value.
func (l *layers) n(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[name]
}

// values returns a distribution's observations.
func (l *layers) values(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.samples[name]...)
}

// unaccountedPct is the share of traced wall time no span covers.
func (l *layers) unaccountedPct() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.base <= 0 {
		return 0
	}
	return 100 * float64(l.base-l.covered) / float64(l.base)
}
