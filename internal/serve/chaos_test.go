package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

// chaosSource is a small MinC program the chaos tests submit over the
// source path, exercising the cache and compile fault sites.
const chaosSource = `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 40; i = i + 1) {
		if (i % 4 == 0) { s = s + 2; } else { s = s + 1; }
	}
	return s;
}`

// offlineVectors recomputes the feature vectors the server extracts for a
// source submission, so tests can derive expected answers independently.
func offlineVectors(t *testing.T, name, src string) []features.Vector {
	t.Helper()
	ast, err := minic.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(ast, ir.LangC, codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	return features.ExtractAll(features.Collect(prog))
}

// degradedReference computes the exact degraded-mode answer for vecs: the
// vector-form Dempster-Shafer combination is a pure function, so the server
// must reproduce these floats bit-for-bit.
func degradedReference(vecs []features.Vector) []float64 {
	d := heuristics.NewDSHCBallLarus()
	out := make([]float64, len(vecs))
	for i := range vecs {
		ev := heuristics.VectorApply(&vecs[i])
		out[i], _ = d.Prob(&vecs[i], &ev)
	}
	return out
}

// checkPredictions verifies a 200 response against the offline model and
// the offline degraded reference: non-degraded answers must be bit-identical
// to the model, degraded answers bit-identical to the heuristic fallback.
func checkPredictions(t *testing.T, pr *PredictResponse, model []float64, degraded []float64) {
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
			t.Errorf("prediction %d (degraded=%v): %v, want %v",
				i, pr.Degraded, p.Probability, want[i])
			return
		}
	}
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

// TestChaosMixedFaultsUnderLoad is the main chaos run: a seeded injector
// fires errors, latency, and panics at every registered fault site while
// concurrent clients hammer both the vector and source paths. The contract:
// the process never dies, every 200 is either bit-identical to the offline
// model or correctly flagged degraded with the exact heuristic answer, the
// server still serves clean bit-identical answers once faults stop, drain
// completes even with the injector active, and no goroutines leak.
func TestChaosMixedFaultsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in short mode")
	}
	model, data := testModel(t)
	vecs := data[0].Vectors[:12]
	offlineModel := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, offlineModel)
	offlineDegraded := degradedReference(vecs)

	srcVecs := offlineVectors(t, "chaos", chaosSource)
	srcModel := make([]float64, len(srcVecs))
	model.TakenProbabilities(srcVecs, srcModel)
	srcDegraded := degradedReference(srcVecs)

	baseline := runtime.NumGoroutine()
	s, err := New(Config{Model: model, Workers: 2, MaxBatch: 4, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Every registered site gets all three fault kinds.
	sites := faultinject.Sites()
	if len(sites) < 4 {
		t.Fatalf("only %d registered fault sites: %v", len(sites), sites)
	}
	var rules []faultinject.Rule
	for _, site := range sites {
		rules = append(rules,
			faultinject.Rule{Site: site, Kind: faultinject.Error, Rate: 0.15},
			faultinject.Rule{Site: site, Kind: faultinject.Latency, Delay: 2 * time.Millisecond, Rate: 0.10},
			faultinject.Rule{Site: site, Kind: faultinject.Panic, Rate: 0.05},
		)
	}
	inj := faultinject.New(42, rules...)
	deactivate := faultinject.Activate(inj)
	defer deactivate()

	vecBody, err := json.Marshal(PredictRequest{ID: "v", Vectors: vectorValues(vecs)})
	if err != nil {
		t.Fatal(err)
	}
	srcBody, err := json.Marshal(PredictRequest{ID: "s", Name: "chaos", Source: chaosSource})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 24, 6
	var (
		wg          sync.WaitGroup
		ok200       atomic.Int64
		degraded200 atomic.Int64
		failed      atomic.Int64
	)
	httpc := &http.Client{Timeout: 30 * time.Second}

	// Artifact-cache traffic rides along so the artifact.load/store sites
	// face the same chaos: an injected fault must degrade to a miss or a
	// skipped write (an injected panic surfaces as *faultinject.Panicked),
	// and a successful load must never observe a wrong record.
	acache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := &artifact.Record{Profile: &interp.Profile{Program: "chaos", Insns: 1}}
		step := func(f func()) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*faultinject.Panicked); !ok {
						panic(r)
					}
				}
			}()
			f()
		}
		for i := 0; i < 150; i++ {
			step(func() { _ = acache.Store("cafe", rec) })
			step(func() {
				if got, ok := acache.Load("cafe"); ok && got.Profile.Program != "chaos" {
					t.Error("artifact cache served a wrong record under chaos")
				}
			})
		}
	}()

	// Model-registry reload churn rides along so the cluster.reload site
	// faces the same chaos: reloads re-install the same weights (answers
	// stay bit-identical across versions), injected errors fail the swap
	// atomically, and injected panics surface as *faultinject.Panicked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reload := func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*faultinject.Panicked); !ok {
						panic(r)
					}
				}
			}()
			_, _ = s.Reload(model)
		}
		for i := 0; i < 25; i++ {
			reload()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				body, m, d := vecBody, offlineModel, offlineDegraded
				if (c+r)%2 == 1 {
					body, m, d = srcBody, srcModel, srcDegraded
				}
				resp, err := httpc.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: transport: %v", c, err)
					return
				}
				var pr PredictResponse
				decErr := json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					// Injected failure surfaced as 5xx — allowed; the server
					// must just survive it.
					failed.Add(1)
					continue
				}
				if decErr != nil {
					t.Errorf("client %d: decode: %v", c, decErr)
					return
				}
				checkPredictions(t, &pr, m, d)
				ok200.Add(1)
				if pr.Degraded {
					degraded200.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no request succeeded under chaos")
	}
	if degraded200.Load() == 0 {
		t.Error("chaos run never exercised degraded mode")
	}
	for _, site := range sites {
		if inj.Hits(site) == 0 {
			t.Errorf("site %s was never reached", site)
		} else if inj.Fired(site) == 0 {
			t.Errorf("site %s never injected a fault (%d hits)", site, inj.Hits(site))
		}
	}

	// Faults off: the very next answers are clean and bit-identical.
	deactivate()
	resp, pr := postPredict(t, ts.URL, PredictRequest{ID: "clean", Vectors: vectorValues(vecs)})
	if resp.StatusCode != http.StatusOK || pr.Degraded {
		t.Fatalf("post-chaos request: status %d degraded %v", resp.StatusCode, pr.Degraded)
	}
	checkPredictions(t, &pr, offlineModel, offlineDegraded)

	// Drain must complete even with the injector active again.
	faultinject.Activate(inj)
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	deactivate()

	ts.Close()
	httpc.CloseIdleConnections()
	assertNoGoroutineLeak(t, baseline)
	t.Logf("chaos: %d ok (%d degraded), %d failed; fired per site: %v",
		ok200.Load(), degraded200.Load(), failed.Load(), func() map[string]int64 {
			m := map[string]int64{}
			for _, site := range sites {
				m[site] = inj.Fired(site)
			}
			return m
		}())
}

// TestChaosPanicAtCompileKeepsServing: an injected panic in the compile
// path becomes a 500 for that request only; the process keeps serving and
// the recovery is counted.
func TestChaosPanicAtCompileKeepsServing(t *testing.T) {
	s, ts := testServer(t, Config{})
	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: "serve.compile", Kind: faultinject.Panic, Hits: []int64{1},
	}))
	defer deactivate()

	req := PredictRequest{Name: "chaos", Source: chaosSource}
	resp, _ := postPredict(t, ts.URL, req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked request: status %d, want 500", resp.StatusCode)
	}
	if got := s.metrics.panicsRecovered.Load(); got != 1 {
		t.Fatalf("panics recovered = %d, want 1", got)
	}
	resp, pr := postPredict(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK || pr.Degraded {
		t.Fatalf("follow-up request: status %d degraded %v — server did not survive the panic",
			resp.StatusCode, pr.Degraded)
	}
}

// TestChaosForwardFailureDegrades: when every model pass fails, responses
// come back 200 with degraded=true and the exact heuristic answers.
func TestChaosForwardFailureDegrades(t *testing.T) {
	model, data := testModel(t)
	s, ts := testServer(t, Config{})
	vecs := data[0].Vectors[:8]
	offlineModel := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, offlineModel)
	offlineDegraded := degradedReference(vecs)

	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: "serve.forward", Kind: faultinject.Error, Rate: 1,
	}))
	req := PredictRequest{ID: "deg", Vectors: vectorValues(vecs)}
	resp, pr := postPredict(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK || !pr.Degraded {
		deactivate()
		t.Fatalf("status %d degraded %v, want degraded 200", resp.StatusCode, pr.Degraded)
	}
	checkPredictions(t, &pr, offlineModel, offlineDegraded)
	if s.metrics.degraded.Load() == 0 {
		t.Error("degraded counter not incremented")
	}

	// Faults off: the same request is answered by the model again.
	deactivate()
	resp, pr = postPredict(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK || pr.Degraded {
		t.Fatalf("recovered request: status %d degraded %v", resp.StatusCode, pr.Degraded)
	}
	checkPredictions(t, &pr, offlineModel, offlineDegraded)
}

// TestChaosWorkerPanicSurvives: a panic inside the worker's model pass is
// contained to that batch — the job degrades, the worker keeps running.
func TestChaosWorkerPanicSurvives(t *testing.T) {
	model, data := testModel(t)
	s, ts := testServer(t, Config{Workers: 1, MaxBatch: 1})
	vecs := data[0].Vectors[:4]
	offlineModel := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, offlineModel)
	offlineDegraded := degradedReference(vecs)

	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: "serve.forward", Kind: faultinject.Panic, Hits: []int64{1},
	}))
	defer deactivate()

	req := PredictRequest{Vectors: vectorValues(vecs)}
	resp, pr := postPredict(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK || !pr.Degraded {
		t.Fatalf("panicked batch: status %d degraded %v, want degraded 200", resp.StatusCode, pr.Degraded)
	}
	checkPredictions(t, &pr, offlineModel, offlineDegraded)
	if s.metrics.panicsRecovered.Load() != 1 {
		t.Fatalf("panics recovered = %d, want 1", s.metrics.panicsRecovered.Load())
	}
	// The single worker must still be alive to serve this.
	resp, pr = postPredict(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK || pr.Degraded {
		t.Fatalf("follow-up: status %d degraded %v — worker died", resp.StatusCode, pr.Degraded)
	}
	checkPredictions(t, &pr, offlineModel, offlineDegraded)
}

// TestChaosNoDegradeSurfacesErrors: with the fallback disabled, model-path
// failures surface as 5xx instead of silently degraded answers.
func TestChaosNoDegradeSurfacesErrors(t *testing.T) {
	_, data := testModel(t)
	_, ts := testServer(t, Config{NoDegrade: true})
	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: "serve.forward", Kind: faultinject.Error, Rate: 1,
	}))
	defer deactivate()

	resp, _ := postPredict(t, ts.URL, PredictRequest{Vectors: vectorValues(data[0].Vectors[:2])})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 with NoDegrade", resp.StatusCode)
	}
}

// TestChaosMetricsHealthzUnderLoadAndDrain: the observability endpoints
// stay correct while the service is overloaded (admission control shedding)
// and while it drains, and the resilience counters are exposed.
func TestChaosMetricsHealthzUnderLoadAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("load test in short mode")
	}
	_, data := testModel(t)
	// A tiny admission window so concurrent load actually sheds.
	s, ts := testServer(t, Config{Workers: 1, MaxBatch: 1, MaxInflight: 2, RequestTimeout: time.Minute})
	vecs := data[0].Vectors
	body, err := json.Marshal(PredictRequest{Vectors: vectorValues(vecs)})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var load sync.WaitGroup
	httpc := &http.Client{Timeout: 2 * time.Minute}
	for c := 0; c < 8; c++ {
		load.Add(1)
		go func() {
			defer load.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := httpc.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server shutting down
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("predict under load: status %d", resp.StatusCode)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
					return
				}
			}
		}()
	}

	// Observability endpoints under concurrent load.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, path := range []string{"/metrics", "/healthz"} {
			resp, err := httpc.Get(ts.URL + path)
			if err != nil {
				t.Fatalf("%s under load: %v", path, err)
			}
			data, _ := readAll(resp)
			if path == "/metrics" {
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("/metrics status %d", resp.StatusCode)
				}
				for _, counter := range []string{
					"espserve_shed_total", "espserve_degraded_total",
					"espserve_panics_recovered_total", "espserve_budget_rejects_total",
				} {
					if !strings.Contains(data, counter) {
						t.Fatalf("/metrics missing %s:\n%s", counter, data)
					}
				}
			}
		}
	}

	// Begin the drain mid-load: healthz flips to draining/503, metrics stays
	// up, and the drain itself completes.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(drainCtx) }()
	defer func() {
		close(stop)
		load.Wait()
	}()

	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	resp, err := httpc.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Errorf("healthz during drain: status %d body %+v", resp.StatusCode, hz)
	}
	resp, err = httpc.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics during drain: status %d", resp.StatusCode)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.metrics.shed.Load() == 0 {
		t.Error("admission control never shed under overload")
	}
	_ = metricsBody
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// TestPredictBudgetRejected: adversarially nested source is refused with
// 422 and counted, instead of blowing the parser stack.
func TestPredictBudgetRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	deep := "int main() { return " + strings.Repeat("(", 400) + "1" + strings.Repeat(")", 400) + "; }"
	resp, _ := postPredict(t, ts.URL, PredictRequest{Name: "deep", Source: deep})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	if s.metrics.budgetRejects.Load() != 1 {
		t.Fatalf("budget rejects = %d, want 1", s.metrics.budgetRejects.Load())
	}
	// Guards off: the same source is accepted.
	_, ts2 := testServer(t, Config{MaxParseDepth: -1, MaxCFGBlocks: -1})
	resp, pr := postPredict(t, ts2.URL, PredictRequest{Name: "deep", Source: deep})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unguarded server: status %d", resp.StatusCode)
	}
	_ = pr
}
