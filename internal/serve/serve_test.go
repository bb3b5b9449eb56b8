package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/obs"
)

// The test fixture: a small but real ESP model trained on a handful of
// corpus programs, shared across all tests in the package.
var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureData  []*core.ProgramData
	fixtureErr   error
)

func testModel(t testing.TB) (*core.Model, []*core.ProgramData) {
	t.Helper()
	fixtureOnce.Do(func() {
		names := []string{"bc", "grep", "gzip"}
		for _, name := range names {
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

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	model, _ := testModel(t)
	if cfg.Model == nil {
		cfg.Model = model
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func postPredict(t *testing.T, url string, req PredictRequest) (*http.Response, PredictResponse) {
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
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr
}

// vectorValues flattens extracted vectors into the request wire form.
func vectorValues(vecs []features.Vector) [][]string {
	out := make([][]string, len(vecs))
	for i, v := range vecs {
		vals := make([]string, features.NumFeatures)
		copy(vals, v.Values[:])
		out[i] = vals
	}
	return out
}

func TestPredictVectorsBitIdentical(t *testing.T) {
	model, data := testModel(t)
	_, ts := testServer(t, Config{})

	vecs := data[0].Vectors
	resp, pr := postPredict(t, ts.URL, PredictRequest{ID: "req-1", Vectors: vectorValues(vecs)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if pr.ID != "req-1" {
		t.Errorf("id echoed as %q", pr.ID)
	}
	if len(pr.Predictions) != len(vecs) {
		t.Fatalf("%d predictions for %d vectors", len(pr.Predictions), len(vecs))
	}
	for i, p := range pr.Predictions {
		// The offline reference: the exact same float the model computes.
		want := model.TakenProbability(vecs[i])
		if p.Probability != want {
			t.Fatalf("vector %d: served probability %v != offline %v", i, p.Probability, want)
		}
		if p.Taken != (want > 0.5) {
			t.Errorf("vector %d: taken=%v for probability %v", i, p.Taken, want)
		}
		wantConf := want
		if wantConf < 0.5 {
			wantConf = 1 - wantConf
		}
		if p.Confidence != wantConf {
			t.Errorf("vector %d: confidence %v, want %v", i, p.Confidence, wantConf)
		}
		if p.Branch != fmt.Sprintf("#%d", i) {
			t.Errorf("vector %d labeled %q", i, p.Branch)
		}
	}
}

// TestPredictSourceMatchesOffline is the acceptance check that serving a
// (cached) program's predictions agrees bit for bit with the offline core
// pipeline on the same model.
func TestPredictSourceMatchesOffline(t *testing.T) {
	model, _ := testModel(t)
	s, ts := testServer(t, Config{})

	e, _ := corpus.ByName("sort")
	req := PredictRequest{
		ID: "src-1", Name: e.Name, Source: e.Source,
		Language: string(e.Language), LinkStdlib: true,
	}

	// Offline reference: compile and predict the same source directly.
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		t.Fatal(err)
	}
	ps := features.Collect(prog)
	offVecs := features.ExtractAll(ps)

	for round := 0; round < 2; round++ {
		resp, pr := postPredict(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		if want := round == 1; pr.Cached != want {
			t.Errorf("round %d: cached=%v, want %v", round, pr.Cached, want)
		}
		if pr.Program != e.Name {
			t.Errorf("round %d: program %q", round, pr.Program)
		}
		if len(pr.Predictions) != len(offVecs) {
			t.Fatalf("round %d: %d predictions, offline has %d sites", round, len(pr.Predictions), len(offVecs))
		}
		for i, p := range pr.Predictions {
			if want := ps.Sites[i].Ref.String(); p.Branch != want {
				t.Fatalf("round %d: site %d labeled %q, want %q", round, i, p.Branch, want)
			}
			if want := model.TakenProbability(offVecs[i]); p.Probability != want {
				t.Fatalf("round %d: site %s served %v, offline %v", round, p.Branch, p.Probability, want)
			}
		}
	}
	if hits := s.metrics.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := s.metrics.cacheMisses.Load(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
}

func TestPredictRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{MaxSourceBytes: 4096, MaxVectors: 8})
	cases := []struct {
		name string
		req  PredictRequest
		want int
	}{
		{"empty", PredictRequest{}, http.StatusBadRequest},
		{"both", PredictRequest{Source: "int main() { return 0; }", Vectors: [][]string{make([]string, features.NumFeatures)}}, http.StatusBadRequest},
		{"short vector", PredictRequest{Vectors: [][]string{{"BNE"}}}, http.StatusBadRequest},
		{"too many vectors", PredictRequest{Vectors: make([][]string, 9)}, http.StatusRequestEntityTooLarge},
		{"parse error", PredictRequest{Source: "int main( {"}, http.StatusBadRequest},
		{"bad language", PredictRequest{Source: "int main() { return 0; }", Language: "COBOL"}, http.StatusBadRequest},
		{"huge source", PredictRequest{Source: strings.Repeat("/* pad */", 1000)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, _ := postPredict(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Non-JSON body and wrong method.
	resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, data := testModel(t)
	s, ts := testServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hz)
	}
	if hz.Classifier != "neural-net" || hz.Inputs == 0 {
		t.Errorf("healthz misdescribes the model: %+v", hz)
	}

	// Drive one prediction so the counters move.
	if r, _ := postPredict(t, ts.URL, PredictRequest{Vectors: vectorValues(data[0].Vectors[:3])}); r.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d", r.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, line := range []string{
		`espserve_requests_total{endpoint="predict"} 1`,
		`espserve_requests_total{endpoint="healthz"} 1`,
		`espserve_predicted_vectors_total 3`,
		`espserve_batches_total`,
		`espserve_cache_hits_total 0`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q:\n%s", line, body)
		}
	}
	if s.metrics.endpoint("predict").requests.Load() != 1 {
		t.Error("predict counter did not advance")
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	_, data := testModel(t)
	s, ts := testServer(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ := postPredict(t, ts.URL, PredictRequest{Vectors: vectorValues(data[0].Vectors[:1])})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("predict after drain: status %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: status %d, want 503", hz.StatusCode)
	}
	// Draining twice is fine.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestPoolSubmitHonorsContext(t *testing.T) {
	model, data := testModel(t)
	p := newPool(model, 1, 4, 4, newMetrics())
	defer p.drain(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.submitJob(newJob(ctx, data[0].Vectors)); err != context.Canceled {
		t.Errorf("submit with canceled context: %v", err)
	}
}

// postRaw posts body to /predict and returns the status and response bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// checkEncodingJSON fails unless body is exactly what json.NewEncoder
// writes for the PredictResponse it decodes to. Decoding and re-encoding is
// an exact oracle: floats round-trip through their shortest digits, and a
// string encoding/json would have escaped differently (or invalid UTF-8,
// which decodes to U+FFFD) re-encodes to other bytes.
func checkEncodingJSON(t *testing.T, body []byte) PredictResponse {
	t.Helper()
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("response is not JSON: %v\n%q", err, body)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(pr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("response bytes differ from encoding/json\ngot:  %q\nwant: %q", body, want.Bytes())
	}
	return pr
}

// TestPredictFastAndSlowShapesAnswerSameBytes sends one vectors request in
// the shape the arena scanner owns and again with an extra "name" key, which
// sends it through encoding/json: with ids encoding/json escapes, the two
// answers must be byte-identical, and both exactly encoding/json's.
func TestPredictFastAndSlowShapesAnswerSameBytes(t *testing.T) {
	_, data := testModel(t)
	_, ts := testServer(t, Config{})
	rows := mustJSON(vectorValues(data[0].Vectors[:5]))
	for _, id := range []string{
		"plain",
		"<script>&amp;</script>",
		"line\u2028sep\u2029é日本",
		`tab\tff\fbs\b`, // JSON escapes the scanner decodes
		"bad\xffutf8",   // invalid UTF-8: the scanner defers to encoding/json
	} {
		fastBody := `{"id":"` + id + `","vectors":` + rows + `}`
		slowBody := `{"id":"` + id + `","name":"","vectors":` + rows + `}`
		ar := getArena()
		if scanned := ar.decode([]byte(fastBody), 4096); scanned != utf8.ValidString(id) {
			t.Fatalf("id %q: scanner took the fast shape: %v", id, scanned)
		}
		putArena(ar)
		fastStatus, fast := postRaw(t, ts.URL, fastBody)
		slowStatus, slow := postRaw(t, ts.URL, slowBody)
		if fastStatus != http.StatusOK || slowStatus != http.StatusOK {
			t.Fatalf("id %q: status fast %d, slow %d", id, fastStatus, slowStatus)
		}
		if !bytes.Equal(fast, slow) {
			t.Errorf("id %q: shapes answer different bytes\nfast: %q\nslow: %q", id, fast, slow)
		}
		checkEncodingJSON(t, fast)
	}
}

// TestPredictBodiesAreEncodingJSON: every 200 /predict body — fast-scanned
// or encoding/json-decoded vectors, compiled or cached source, model or
// degraded answers — is byte for byte encoding/json's rendering.
func TestPredictBodiesAreEncodingJSON(t *testing.T) {
	_, data := testModel(t)
	_, ts := testServer(t, Config{})
	rows := mustJSON(vectorValues(data[1].Vectors))
	src := mustJSON(chaosSource)
	bodies := []string{
		`{"id":"v<1>","vectors":` + rows + `}`,
		`{"id":"v<1>","name":"n","vectors":` + rows + `}`,
		`{"id":"s<1>","name":"chaos&co","source":` + src + `}`,
		`{"id":"s<1>","name":"chaos&co","source":` + src + `}`, // cached
	}
	check := func(degraded bool) {
		for _, body := range bodies {
			status, out := postRaw(t, ts.URL, body)
			if status != http.StatusOK {
				t.Fatalf("status %d for %s", status, body)
			}
			if pr := checkEncodingJSON(t, out); pr.Degraded != degraded || len(pr.Predictions) == 0 {
				t.Errorf("degraded=%v with %d predictions, want degraded=%v", pr.Degraded, len(pr.Predictions), degraded)
			}
		}
	}
	check(false)
	deactivate := faultinject.Activate(faultinject.New(1, faultinject.Rule{
		Site: "serve.forward", Kind: faultinject.Error, Rate: 1,
	}))
	defer deactivate()
	check(true)
}

// TestPredictBranchlessSource: a program with no branch sites answers an
// empty prediction list without a trip through the worker pool, so its trace
// has no queue-wait or forward span.
func TestPredictBranchlessSource(t *testing.T) {
	_, ts := testServer(t, Config{})
	const src = "int main() { return 0; }"
	if vecs := offlineVectors(t, "flat", src); len(vecs) != 0 {
		t.Fatalf("fixture has %d branch sites, want none", len(vecs))
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/predict",
		strings.NewReader(`{"name":"flat","source":`+mustJSON(src)+`}`))
	req.Header.Set("X-Request-ID", "branchless")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v", resp.StatusCode, err)
	}
	if want := `{"program":"flat","cached":false,"predictions":[]}` + "\n"; string(out) != want {
		t.Errorf("body %q, want %q", out, want)
	}
	checkEncodingJSON(t, out)

	var trace *obs.Trace
	for deadline := time.Now().Add(5 * time.Second); trace == nil && time.Now().Before(deadline); {
		for _, tr := range getDebugRequests(t, ts.URL) {
			if tr.ID == "branchless" {
				trace = tr
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if trace == nil {
		t.Fatal("branchless request's trace not found in ring")
	}
	st := spanStages(trace)
	if st[obs.StageQueueWait] || st[obs.StageForward] {
		t.Errorf("branchless request went through the pool: %+v", trace.Spans)
	}
	if !st[obs.StageEncode] {
		t.Errorf("branchless request has no encode span: %+v", trace.Spans)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	a, b, d := &programImage{Name: "a"}, &programImage{Name: "b"}, &programImage{Name: "d"}
	c.add("a", a)
	c.add("b", b)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.add("d", d) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if _, ok := c.get("d"); !ok {
		t.Error("d missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	// Re-adding an existing key refreshes in place.
	c.add("a", &programImage{Name: "a2"})
	if img, _ := c.get("a"); img.Name != "a2" {
		t.Error("re-add did not replace the image")
	}
	if c.len() != 2 {
		t.Errorf("len after re-add = %d", c.len())
	}
}

func TestBatchPredictionMatchesSingle(t *testing.T) {
	model, data := testModel(t)
	vecs := data[1].Vectors
	out := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, out)
	for i, v := range vecs {
		if want := model.TakenProbability(v); out[i] != want {
			t.Fatalf("vector %d: batch %v != single %v", i, out[i], want)
		}
	}
}
