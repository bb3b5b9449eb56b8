package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/features"
)

// predictPipeline runs the steady-state vectors request path without the
// HTTP plumbing around it: arena decode → pooled batch submit →
// arena-rendered response. The response bytes are appended to out (reusing
// its capacity; pass nil to allocate) and returned. The /predict handler
// wraps exactly these stages.
//
// body must be a well-formed vectors-only request ({"id": ..., "vectors":
// [[...], ...]}); anything else is an error here rather than a silent fall
// back, so a benchmark can't accidentally time the wrong path.
func (s *Server) predictPipeline(ctx context.Context, body, out []byte) ([]byte, error) {
	ar := getArena()
	ar.body = append(ar.body[:0], body...)
	if !ar.decode(ar.body, s.cfg.MaxVectors) {
		putArena(ar)
		return out, fmt.Errorf("serve: body is not a fast-path vectors request")
	}
	mv := s.pinned()
	defer mv.unpin()
	j := ar.prepareJob(ctx, ar.vecs)
	reusable, err := mv.pool.submitJob(j)
	if err == nil {
		out = append(out[:0], ar.encodeResponse("", false, false, ar.vecs, j.probs)...)
	}
	if reusable {
		putArena(ar)
	}
	return out, err
}

// newJob allocates a one-shot job over vecs, as the request path did before
// the arena kept a reusable one.
func newJob(ctx context.Context, vecs []features.Vector) *job {
	return &job{
		ctx:      ctx,
		vecs:     vecs,
		probs:    make([]float64, len(vecs)),
		done:     make(chan struct{}, 1),
		enqueued: time.Now(),
	}
}

// predictPipelineReference runs the same request through the pre-arena
// pipeline: encoding/json decode, features.FromValues, a per-request job
// allocation, encoding/json response. It is the frozen request path the
// arena pipeline replaced, kept as its oracle and benchmark baseline; no
// request handler calls it.
func (s *Server) predictPipelineReference(ctx context.Context, body []byte) ([]byte, error) {
	var req PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if len(req.Vectors) == 0 {
		return nil, fmt.Errorf("serve: reference pipeline needs vectors")
	}
	if len(req.Vectors) > s.cfg.MaxVectors {
		return nil, fmt.Errorf("serve: request has %d vectors, limit %d", len(req.Vectors), s.cfg.MaxVectors)
	}
	vecs := make([]features.Vector, len(req.Vectors))
	refs := make([]string, len(req.Vectors))
	for i, vals := range req.Vectors {
		v, err := features.FromValues(vals)
		if err != nil {
			return nil, fmt.Errorf("vector %d: %v", i, err)
		}
		vecs[i] = v
		refs[i] = fmt.Sprintf("#%d", i)
	}
	mv := s.pinned()
	defer mv.unpin()
	j := newJob(ctx, vecs)
	if _, err := mv.pool.submitJob(j); err != nil {
		return nil, err
	}
	resp := PredictResponse{ID: req.ID, Predictions: make([]Prediction, len(vecs))}
	for i, p := range j.probs {
		conf := p
		if conf < 0.5 {
			conf = 1 - conf
		}
		resp.Predictions[i] = Prediction{
			Branch:      refs[i],
			Taken:       p > 0.5,
			Probability: p,
			Confidence:  conf,
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pipelineTestServer builds a server over the fixture model.
func pipelineTestServer(t testing.TB, cfg Config) *Server {
	model, _ := testModel(t)
	cfg.Model = model
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func benchBody(t testing.TB, nvec int) []byte {
	_, data := testModel(t)
	vecs := data[0].Vectors
	for len(vecs) < nvec {
		vecs = append(vecs, vecs...)
	}
	body, err := json.Marshal(PredictRequest{ID: "bench", Vectors: vectorValues(vecs[:nvec])})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestPredictPipelineMatchesReference pins the arena pipeline to its
// reference: the same request on the same server answers with the same
// bytes, for a plain id and for one encoding/json escapes.
func TestPredictPipelineMatchesReference(t *testing.T) {
	s := pipelineTestServer(t, Config{Workers: 1, MaxBatch: 4})
	_, data := testModel(t)
	rows := mustJSON(vectorValues(data[0].Vectors[:6]))
	ctx := context.Background()

	for _, body := range []string{
		string(benchBody(t, 6)),
		"{\"id\":\"<a&b>\u2028é\",\"vectors\":" + rows + "}",
	} {
		fast, err := s.predictPipeline(ctx, []byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.predictPipelineReference(ctx, []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast, ref) {
			t.Fatalf("pipelines disagree on %q:\nfast %q\nref  %q", body, fast, ref)
		}
	}

	if _, err := s.predictPipeline(ctx, []byte(`{"source":"int f(){}"}`), nil); err == nil {
		t.Fatal("predictPipeline accepted a non-vectors request")
	}
}

func BenchmarkPipelineReferenceFloat(b *testing.B) {
	s := pipelineTestServer(b, Config{Workers: 1, MaxBatch: 1})
	body := benchBody(b, 4)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.predictPipelineReference(ctx, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4), "ns/prediction")
}

func BenchmarkPipelineArenaFloat(b *testing.B) {
	s := pipelineTestServer(b, Config{Workers: 1, MaxBatch: 1})
	body := benchBody(b, 4)
	ctx := context.Background()
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = s.predictPipeline(ctx, body, out)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4), "ns/prediction")
}
