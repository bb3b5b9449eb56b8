package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// maxRouteBodyBytes bounds how much of a request body the router buffers
// for re-sending across failover candidates. It equals a default-config
// replica's body bound (source bound plus framing slack), so the router
// answers an oversized body with the same 413 the replica would.
const maxRouteBodyBytes = 1<<20 + 1<<16

// Replica is one routable espserve instance. Its URL is mutable so a
// restarted replica (new port) keeps its ring identity and keyspace share.
type Replica struct {
	Name string

	mu  sync.RWMutex
	url string
}

// URL returns the replica's current base URL.
func (r *Replica) URL() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.url
}

// SetURL repoints the replica, e.g. after a restart on a fresh port.
func (r *Replica) SetURL(u string) {
	r.mu.Lock()
	r.url = u
	r.mu.Unlock()
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Vnodes per replica on the ring (default DefaultVnodes).
	Vnodes int
	// MaxFailover bounds how many replicas one request may be offered to
	// (default 3, or the replica count if smaller).
	MaxFailover int
	// Timeout is the per-attempt upstream timeout (default 30s).
	Timeout time.Duration
	// Counters receives failover events (optional).
	Counters Counters
}

// Router fronts a set of espserve replicas with consistent-hash routing
// and bounded failover. Each /predict request is keyed by its content
// (RequestKey) and offered to the key's ring owner first; a shed (429),
// server error (5xx), or transport failure moves it to the next distinct
// live replica on the ring, never to a drained one. Responses are relayed
// verbatim — including Retry-After on a shed — so clients observe exactly
// the single-server protocol.
type Router struct {
	ring     *Ring
	mu       sync.RWMutex
	replicas map[string]*Replica
	client   *http.Client
	maxFail  int
	counters counters
}

// NewRouter builds a router over the given replicas.
func NewRouter(cfg RouterConfig, replicas ...*Replica) *Router {
	maxFail := cfg.MaxFailover
	if maxFail <= 0 {
		maxFail = 3
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	rt := &Router{
		ring:     NewRing(cfg.Vnodes),
		replicas: make(map[string]*Replica, len(replicas)),
		client:   &http.Client{Timeout: timeout},
		maxFail:  maxFail,
		counters: counters{cfg.Counters},
	}
	for _, rep := range replicas {
		rt.replicas[rep.Name] = rep
		rt.ring.Add(rep.Name)
	}
	return rt
}

// Ring exposes the router's ring for membership and drain control.
func (rt *Router) Ring() *Ring { return rt.ring }

// Replica returns the named replica, or nil.
func (rt *Router) Replica(name string) *Replica {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.replicas[name]
}

// SetDrained marks a replica as drained: it keeps its keyspace share but
// receives no traffic until undrained.
func (rt *Router) SetDrained(name string, drained bool) {
	rt.ring.SetDrained(name, drained)
}

// RequestKey derives the routing key from a request's content: the source
// program when present (so one program's repeat requests — and its compiled
// LRU entry and artifact-cache entry — land on one replica), otherwise the
// submitted feature vectors.
func RequestKey(req *serve.PredictRequest) string {
	h := sha256.New()
	if req.Source != "" {
		io.WriteString(h, req.Language)
		h.Write([]byte{0})
		io.WriteString(h, req.Name)
		h.Write([]byte{0})
		fmt.Fprintf(h, "%t\x00", req.LinkStdlib)
		io.WriteString(h, req.Source)
	} else {
		for _, vec := range req.Vectors {
			for _, v := range vec {
				io.WriteString(h, v)
				h.Write([]byte{1})
			}
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ServeHTTP routes /predict by content key with failover; every other path
// (healthz, metrics, debug) is answered by the first live replica on the
// ring for that path, without failover semantics beyond skipping drained
// replicas.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeRouterError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeRouterError(w, http.StatusBadRequest, "read body")
		return
	}
	key := r.URL.Path
	if r.Method == http.MethodPost && r.URL.Path == "/predict" {
		var req serve.PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeRouterError(w, http.StatusBadRequest, "invalid JSON body")
			return
		}
		key = RequestKey(&req)
	}

	candidates := rt.ring.Sequence(key, rt.maxFail)
	if len(candidates) == 0 {
		writeRouterError(w, http.StatusServiceUnavailable, "no live replicas")
		return
	}

	var last *http.Response
	var lastBody []byte
	for i, name := range candidates {
		if i > 0 {
			rt.counters.failover()
		}
		if err := faultinject.Fire(siteRoute); err != nil {
			continue // injected routing fault: this candidate is unreachable
		}
		rep := rt.Replica(name)
		if rep == nil {
			continue
		}
		resp, respBody, err := rt.forward(rep.URL(), r, body)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			last, lastBody = resp, respBody
			continue
		}
		relay(w, resp, respBody)
		return
	}
	if last != nil {
		// Every candidate shed or failed: relay the most recent upstream
		// verdict verbatim (Retry-After included) so clients back off the
		// way a single overloaded server would make them.
		relay(w, last, lastBody)
		return
	}
	writeRouterError(w, http.StatusBadGateway, "all replicas unreachable")
}

func (rt *Router) forward(base string, r *http.Request, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	// X-Request-ID carries the client's request ID to the replica, whose
	// trace ring (/debug/requests) records it.
	for _, k := range []string{"Content-Type", "X-Request-ID"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

func writeRouterError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": "esprouter: " + msg})
}
