package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// probeRequests is how many requests of the seeded serving stream each
// probe pass plays: about half of them are vectors requests, so each kind
// has the 1000 requests a p99 needs.
const probeRequests = 2400

// probePasses is how many latency passes one probe run makes, and in the
// traced run how many capacity passes.
const probePasses = 3

// probe plays the run's seeded serving stream through the in-process probe,
// each pass to a fresh server: latency passes, one request at a time. The
// traced run adds one traced latency pass, whose cost over the first
// untraced one counts as tracing overhead, and follows each latency pass
// with an untraced capacity pass from nproc concurrent clients.
//
// Every latency pass replays the same stream to an identical fresh server,
// so a request does the same work in each. Its latency is the median of
// its plays: a stall of the host that hits one play drops out, and what
// the request path costs stays.
func probe(b *bench, ov *overhead, m *core.Model, reqs []request) error {
	order := stream(b.seed, probeRequests)
	plays := make([][]float64, len(order))
	var rps []float64
	for k := 0; k < probePasses; k++ {
		settle()
		res, err := runLatency(nil, m, reqs, order)
		if err != nil {
			return err
		}
		b.tally(res)
		for i, ms := range res.ms {
			plays[i] = append(plays[i], ms)
		}
		if b.l != nil && k == 0 {
			settle()
			traced, err := runLatency(b.l, m, reqs, order)
			if err != nil {
				return err
			}
			b.tally(traced)
			ov.add(res.elapsed, traced.elapsed)
		}
		if b.l != nil {
			settle()
			full, err := runCapacity(b.l, m, reqs, order)
			if err != nil {
				return err
			}
			b.tally(full)
			rps = append(rps, float64(full.sent)/full.elapsed.Seconds())
		}
	}
	var vectors, source []float64
	for i, ms := range plays {
		if reqs[order[i]].source {
			source = append(source, median(ms))
		} else {
			vectors = append(vectors, median(ms))
		}
	}
	for _, kind := range []struct {
		name string
		ms   []float64
	}{{"vectors", vectors}, {"source", source}} {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			v, err := percentile(kind.ms, q.q)
			if err != nil {
				return fmt.Errorf("probe %s requests: %w", kind.name, err)
			}
			b.set("serve_"+kind.name+"_"+q.name+"_ms", v)
		}
	}
	if b.l != nil {
		b.set("serve.capacity_rps", median(rps))
	}
	return nil
}

// tally counts a probe pass's requests and failed answers.
func (b *bench) tally(res probeResult) {
	b.attempt += int64(res.sent)
	b.failed += int64(res.failed)
	if res.firstErr != nil && len(b.problems) < 20 {
		b.problems = append(b.problems, "probe response: "+res.firstErr.Error())
	}
}

// probeResult is what one probe pass measured.
type probeResult struct {
	ms           []float64 // each request's latency, in stream order
	elapsed      time.Duration
	sent, failed int
	firstErr     error
}

// checkAll checks every answer of a pass against the offline one, after the
// pass, so checking costs the server no time.
func (r *probeResult) checkAll(reqs []request, order []int, codes []int, bodies [][]byte) {
	for k, i := range order {
		r.sent++
		if err := reqs[i].check(codes[k], bodies[k]); err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
	}
}

// probeServer starts a fresh in-process espserve with default settings:
// the replica's whole request path (admission, decode, LRU, compile,
// featurize, batching pool, forward, encode) without the network. With a
// log, it writes every request's trace there.
func probeServer(m *core.Model, log io.Writer) (*serve.Server, http.Handler, error) {
	cfg := serve.Config{Model: m}
	if log != nil {
		cfg.TraceSample, cfg.AccessLog = 1, log
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return srv, srv.Handler(), nil
}

// post sends one /predict body to the handler.
func post(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/predict", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// runLatency plays the stream one request at a time, closed loop, to a
// fresh server and times each request. Traced, the server records every
// request's spans and counters, which feed the per-layer figures.
func runLatency(l *layers, m *core.Model, reqs []request, order []int) (probeResult, error) {
	var log *lockedBuffer
	var w io.Writer
	if l != nil {
		log = &lockedBuffer{}
		w = log
	}
	srv, h, err := probeServer(m, w)
	if err != nil {
		return probeResult{}, err
	}
	var res probeResult
	codes, bodies := make([]int, len(order)), make([][]byte, len(order))
	start := time.Now()
	for k, i := range order {
		t := time.Now()
		codes[k], bodies[k] = post(h, reqs[i].body)
		res.ms = append(res.ms, float64(time.Since(t))/1e6)
	}
	res.elapsed = time.Since(start)
	res.checkAll(reqs, order, codes, bodies)
	if l != nil {
		countServer(l, h, serverCounters)
	}
	// Drain stops the server's worker pool; nothing is in flight.
	if err := srv.Drain(context.Background()); err != nil {
		return res, err
	}
	if l != nil {
		traces, err := readTraces(bytes.NewReader(log.Bytes()))
		if err != nil {
			return res, err
		}
		addTraces(l, traces)
	}
	return res, nil
}

// runCapacity plays the stream from nproc concurrent closed-loop clients to
// a fresh server, each client sending the stream's next request as soon as
// its last one is answered. Requests in flight together go through
// admission and the worker pool together, which folds them into shared
// model passes; the pass's rate is what the server sustains at full load.
// The server records no traces; its batching counters go to l.
func runCapacity(l *layers, m *core.Model, reqs []request, order []int) (probeResult, error) {
	srv, h, err := probeServer(m, nil)
	if err != nil {
		return probeResult{}, err
	}
	codes, bodies := make([]int, len(order)), make([][]byte, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				codes[k], bodies[k] = post(h, reqs[order[k]].body)
			}
		}()
	}
	wg.Wait()
	res := probeResult{elapsed: time.Since(start)}
	res.checkAll(reqs, order, codes, bodies)
	countServer(l, h, capacityCounters)
	return res, srv.Drain(context.Background())
}

// serverCounters are the espserve counters of a traced latency pass the
// traced run reports, by the per-layer counter each feeds.
var serverCounters = map[string]string{
	"espserve_cache_hits_total":       "serve.lru_hits",
	"espserve_cache_misses_total":     "serve.lru_misses",
	"espserve_shed_total":             "serve.shed",
	"espserve_degraded_total":         "serve.degraded",
	"espserve_request_timeouts_total": "serve.timeouts",
}

// capacityCounters are the espserve counters of a capacity pass the traced
// run reports.
var capacityCounters = map[string]string{
	"espserve_batches_total":      "serve.capacity_batches",
	"espserve_batched_jobs_total": "serve.capacity_batched_jobs",
}

// countServer adds the named counters, read from the server's /metrics, to
// the per-layer figures.
func countServer(l *layers, h http.Handler, counters map[string]string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var names []string
	for n := range counters {
		names = append(names, n)
	}
	for n, v := range parseCounters(rec.Body.String(), names) {
		l.count(counters[n], v)
	}
}

// lockedBuffer is a bytes.Buffer safe for the server's concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Bytes()
}
