package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// fakeBackend is a scriptable replica: it answers /predict with its own
// name so tests can observe routing, and can be flipped into shedding or
// erroring mode.
type fakeBackend struct {
	name string
	hits atomic.Int64
	shed atomic.Bool // 429 + Retry-After: 7
	fail atomic.Bool // 500
	ts   *httptest.Server
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	b := &fakeBackend{name: name}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		switch {
		case b.shed.Load():
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"shedding"}`)
		case b.fail.Load():
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"id":%q,"predictions":[]}`, b.name)
		}
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func testRouter(t *testing.T, cfg RouterConfig, backends ...*fakeBackend) *Router {
	t.Helper()
	reps := make([]*Replica, len(backends))
	for i, b := range backends {
		reps[i] = &Replica{Name: b.name}
		reps[i].SetURL(b.ts.URL)
	}
	return NewRouter(cfg, reps...)
}

func routePredict(t *testing.T, rt *Router, req serve.PredictRequest) (*http.Response, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, hr)
	resp := rec.Result()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var pr serve.PredictResponse
	_ = json.Unmarshal(data, &pr)
	return resp, pr.ID
}

func sourceReq(i int) serve.PredictRequest {
	return serve.PredictRequest{Name: fmt.Sprintf("p%d", i), Source: fmt.Sprintf("int main() { return %d; }", i)}
}

// TestRouterKeyAffinity: one request body always lands on one replica, and
// distinct bodies spread across all of them.
func TestRouterKeyAffinity(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "r0"), newFakeBackend(t, "r1"), newFakeBackend(t, "r2"),
	}
	rt := testRouter(t, RouterConfig{}, backends...)

	req := sourceReq(7)
	var first string
	for i := 0; i < 10; i++ {
		resp, who := routePredict(t, rt, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if first == "" {
			first = who
		} else if who != first {
			t.Fatalf("same body served by %s then %s", first, who)
		}
	}

	served := map[string]bool{}
	for i := 0; i < 60; i++ {
		_, who := routePredict(t, rt, sourceReq(i))
		served[who] = true
	}
	if len(served) != len(backends) {
		t.Fatalf("60 distinct bodies reached only %d of %d replicas", len(served), len(backends))
	}
}

// TestRouterFailsOverOnShed: the key's owner sheds, the next ring candidate
// answers; the client sees a clean 200 and the failover is counted.
func TestRouterFailsOverOnShed(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "r0"), newFakeBackend(t, "r1"), newFakeBackend(t, "r2"),
	}
	var failovers atomic.Int64
	rt := testRouter(t, RouterConfig{Counters: countFailovers{&failovers}}, backends...)

	req := sourceReq(1)
	owner := rt.Ring().Lookup(RequestKey(&req))
	for _, b := range backends {
		if b.name == owner {
			b.shed.Store(true)
		}
	}
	resp, who := routePredict(t, rt, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	if who == owner {
		t.Fatalf("shedding owner %s served the request", owner)
	}
	if failovers.Load() == 0 {
		t.Error("failover not counted")
	}
	// Next candidate for this key must be deterministic: the same request
	// fails over to the same secondary.
	_, who2 := routePredict(t, rt, req)
	if who2 != who {
		t.Fatalf("failover not deterministic: %s then %s", who, who2)
	}
}

// TestRouterFailsOverOnErrorAndUnreachable: 5xx and transport failures move
// the request along the ring just like a shed.
func TestRouterFailsOverOnErrorAndUnreachable(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "r0"), newFakeBackend(t, "r1"), newFakeBackend(t, "r2"),
	}
	rt := testRouter(t, RouterConfig{}, backends...)
	req := sourceReq(2)
	seq := rt.Ring().Sequence(RequestKey(&req), 3)

	for _, b := range backends {
		if b.name == seq[0] {
			b.fail.Store(true) // owner: 500
		}
		if b.name == seq[1] {
			b.ts.Close() // first failover target: unreachable
		}
	}
	resp, who := routePredict(t, rt, req)
	if resp.StatusCode != http.StatusOK || who != seq[2] {
		t.Fatalf("status %d from %q, want 200 from %q", resp.StatusCode, who, seq[2])
	}
}

// TestRouterRelaysShedVerbatim: when every candidate sheds, the client gets
// the upstream 429 with its Retry-After intact — the single-server backoff
// protocol, not a router-invented error.
func TestRouterRelaysShedVerbatim(t *testing.T) {
	backends := []*fakeBackend{newFakeBackend(t, "r0"), newFakeBackend(t, "r1")}
	for _, b := range backends {
		b.shed.Store(true)
	}
	rt := testRouter(t, RouterConfig{}, backends...)
	resp, _ := routePredict(t, rt, sourceReq(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want relayed 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q not relayed", got)
	}
}

// TestRouterNeverRoutesToDrained: a drained replica receives zero requests
// — as owner or as failover target — until undrained.
func TestRouterNeverRoutesToDrained(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "r0"), newFakeBackend(t, "r1"), newFakeBackend(t, "r2"),
	}
	rt := testRouter(t, RouterConfig{}, backends...)
	rt.SetDrained("r1", true)
	// Shed on r0 so failover pressure exists: it must skip r1.
	backends[0].shed.Store(true)

	for i := 0; i < 40; i++ {
		resp, _ := routePredict(t, rt, sourceReq(i))
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if got := backends[1].hits.Load(); got != 0 {
		t.Fatalf("drained replica served %d requests", got)
	}

	rt.SetDrained("r1", false)
	backends[0].shed.Store(false)
	for i := 0; i < 40; i++ {
		routePredict(t, rt, sourceReq(i))
	}
	if backends[1].hits.Load() == 0 {
		t.Error("undrained replica never rejoined the rotation")
	}
}

// TestRouterAllUnreachable: a fully dead cluster surfaces as 502, and a
// fully drained one as 503.
func TestRouterAllUnreachable(t *testing.T) {
	backends := []*fakeBackend{newFakeBackend(t, "r0"), newFakeBackend(t, "r1")}
	rt := testRouter(t, RouterConfig{}, backends...)
	for _, b := range backends {
		b.ts.Close()
	}
	resp, _ := routePredict(t, rt, sourceReq(4))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	for _, b := range backends {
		rt.SetDrained(b.name, true)
	}
	resp, _ = routePredict(t, rt, sourceReq(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when fully drained", resp.StatusCode)
	}
}

// TestRequestKeyContent: the key follows the request's content — same
// source, same key; different source or vectors, different key.
func TestRequestKeyContent(t *testing.T) {
	a := sourceReq(1)
	b := sourceReq(1)
	if RequestKey(&a) != RequestKey(&b) {
		t.Fatal("identical requests keyed differently")
	}
	c := sourceReq(2)
	if RequestKey(&a) == RequestKey(&c) {
		t.Fatal("different sources share a key")
	}
	v1 := serve.PredictRequest{Vectors: [][]string{{"x", "y"}}}
	v2 := serve.PredictRequest{Vectors: [][]string{{"x", "z"}}}
	if RequestKey(&v1) == RequestKey(&v2) {
		t.Fatal("different vectors share a key")
	}
}

type countFailovers struct{ n *atomic.Int64 }

func (c countFailovers) PeerHit()  {}
func (c countFailovers) PeerMiss() {}
func (c countFailovers) Failover() { c.n.Add(1) }

// sourceBody returns a /predict body of exactly size bytes: one source
// submission padded with a comment.
func sourceBody(size int) []byte {
	const head, tail = `{"source":"int main() { return 0; } /* `, ` */"}`
	pad := size - len(head) - len(tail)
	return []byte(head + strings.Repeat("x", pad) + tail)
}

// TestRouterBodyParity: the router promises clients the single-server
// protocol, so every body must get the status a default-config replica
// gives it directly, whether the router rejects the body itself or
// forwards it.
func TestRouterBodyParity(t *testing.T) {
	rep := newTestReplica(t, "a", serve.Config{})
	r := &Replica{Name: "a"}
	r.SetURL(rep.ts.URL)
	router := httptest.NewServer(NewRouter(RouterConfig{}, r))
	t.Cleanup(router.Close)

	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"empty", nil, http.StatusBadRequest},
		{"malformed", []byte(`{"source":`), http.StatusBadRequest},
		{"not an object", []byte(`[1,2]`), http.StatusBadRequest},
		{"neither source nor vectors", []byte(`{}`), http.StatusBadRequest},
		{"source over its bound, body at the limit", sourceBody(maxRouteBodyBytes), http.StatusRequestEntityTooLarge},
		{"oversized by one byte", sourceBody(maxRouteBodyBytes + 1), http.StatusRequestEntityTooLarge},
		{"oversized", sourceBody(maxRouteBodyBytes + 1<<16), http.StatusRequestEntityTooLarge},
		{"oversized garbage", bytes.Repeat([]byte("{"), maxRouteBodyBytes+1), http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct := postStatus(t, rep.ts.URL, tc.body)
			routed := postStatus(t, router.URL, tc.body)
			if direct != tc.want || routed != direct {
				t.Errorf("replica %d, router %d, want both %d", direct, routed, tc.want)
			}
		})
	}
}

func postStatus(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestRouterForwardsRequestID: the client's X-Request-ID reaches the
// replica, so the replica's trace ring holds the ID the client chose.
func TestRouterForwardsRequestID(t *testing.T) {
	rep := newTestReplica(t, "a", serve.Config{})
	r := &Replica{Name: "a"}
	r.SetURL(rep.ts.URL)
	router := httptest.NewServer(NewRouter(RouterConfig{}, r))
	t.Cleanup(router.Close)

	_, data := testModel(t)
	body, err := json.Marshal(serve.PredictRequest{Vectors: vectorValues(data[0].Vectors[:2])})
	if err != nil {
		t.Fatal(err)
	}
	const id = "client-id-7"
	req, err := http.NewRequest(http.MethodPost, router.URL+"/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed predict: status %d", resp.StatusCode)
	}

	// The replica records a trace after writing its response: poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var ids []string
		for _, tr := range replicaTraces(t, rep.ts.URL) {
			if tr.ID == id {
				return
			}
			ids = append(ids, tr.ID)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica trace ring has IDs %q, not the client's %q", ids, id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicaTraces reads a replica's /debug/requests ring.
func replicaTraces(t *testing.T, url string) []*obs.Trace {
	t.Helper()
	resp, err := http.Get(url + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dr struct {
		Traces []*obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	return dr.Traces
}
