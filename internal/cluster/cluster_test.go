package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/serve"
)

// The shared fixture: a small but real ESP model trained on a handful of
// corpus programs, mirroring the serve package's fixture so cluster
// answers can be checked against the same offline reference.
var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureData  []*core.ProgramData
	fixtureErr   error
)

func testModel(t testing.TB) (*core.Model, []*core.ProgramData) {
	t.Helper()
	fixtureOnce.Do(func() {
		for _, name := range []string{"bc", "grep", "gzip"} {
			e, ok := corpus.ByName(name)
			if !ok {
				fixtureErr = fmt.Errorf("no corpus entry %q", name)
				return
			}
			prog, err := e.Compile(codegen.Default)
			if err != nil {
				fixtureErr = err
				return
			}
			pd, err := core.Analyze(prog, e.Language, e.RunConfig())
			if err != nil {
				fixtureErr = err
				return
			}
			fixtureData = append(fixtureData, pd)
		}
		cfg := core.Config{Hidden: 8}
		cfg.Net.MaxEpochs = 40
		cfg.Net.Patience = 10
		fixtureModel = core.Train(fixtureData, cfg)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureModel, fixtureData
}

func vectorValues(vecs []features.Vector) [][]string {
	out := make([][]string, len(vecs))
	for i, v := range vecs {
		vals := make([]string, features.NumFeatures)
		copy(vals, v.Values[:])
		out[i] = vals
	}
	return out
}

// degradedReference computes the exact Dempster-Shafer fallback answers, the
// only deviation from the model the cluster contract permits.
func degradedReference(vecs []features.Vector) []float64 {
	d := heuristics.NewDSHCBallLarus()
	out := make([]float64, len(vecs))
	for i := range vecs {
		ev := heuristics.VectorApply(&vecs[i])
		out[i], _ = d.Prob(&vecs[i], &ev)
	}
	return out
}

// checkPredictions verifies a 200 response: non-degraded answers must be
// bit-identical to the offline model, degraded answers bit-identical to the
// heuristic fallback — no third outcome exists, however many replicas,
// failovers, or reloads the request crossed.
func checkPredictions(t *testing.T, pr *serve.PredictResponse, model, degraded []float64) {
	t.Helper()
	want := model
	if pr.Degraded {
		want = degraded
	}
	if len(pr.Predictions) != len(want) {
		t.Errorf("%d predictions, want %d", len(pr.Predictions), len(want))
		return
	}
	for i, p := range pr.Predictions {
		if p.Probability != want[i] {
			t.Errorf("prediction %d (degraded=%v): %v, want %v", i, pr.Degraded, p.Probability, want[i])
			return
		}
	}
}

// testReplica is one espserve instance wired the way cmd/espserve wires it:
// a serve.Server with its peer-cache handler mounted beside it.
type testReplica struct {
	name  string
	srv   *serve.Server
	cache *artifact.Cache
	peers *PeerCache
	ts    *httptest.Server
}

func newTestReplica(t *testing.T, name string, cfg serve.Config) *testReplica {
	t.Helper()
	model, _ := testModel(t)
	if cfg.Model == nil {
		cfg.Model = model
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &testReplica{name: name, srv: srv, cache: cache}
	r.peers = NewPeerCache(cache, PeerCacheConfig{Counters: srv.ClusterStats()})
	mux := http.NewServeMux()
	mux.Handle(PeerPathPrefix, r.peers.Handler())
	mux.Handle("/", srv.Handler())
	r.ts = httptest.NewServer(mux)
	t.Cleanup(func() {
		r.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = r.srv.Drain(ctx)
	})
	return r
}

// restart closes the replica's listener and brings it back on a fresh port
// with the same serve.Server — the ring identity survives, the URL moves.
func (r *testReplica) restart() {
	handler := r.ts.Config.Handler
	r.ts.Close()
	r.ts = httptest.NewServer(handler)
}

// connectPeers wires every replica's peer ring to every other replica's
// current URL.
func connectPeers(replicas ...*testReplica) {
	for _, r := range replicas {
		ring := r.peers.Ring()
		for _, m := range ring.Members() {
			ring.Remove(m)
		}
		for _, other := range replicas {
			if other != r {
				ring.Add(other.ts.URL)
			}
		}
	}
}

func postPredict(t *testing.T, url string, req serve.PredictRequest) (*http.Response, serve.PredictResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr serve.PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr
}

func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+4 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
