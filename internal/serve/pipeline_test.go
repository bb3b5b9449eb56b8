package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/features"
)

// predictPipeline runs the steady-state vectors request path without the
// HTTP plumbing around it: arena decode → pooled batch submit →
// hand-rendered response. The response bytes are appended to out (reusing
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
	j := ar.prepareJob(ctx)
	reusable, err := mv.pool.submitJob(j)
	if err == nil {
		out = append(out[:0], ar.encodeResponse(j.probs)...)
	}
	if reusable {
		putArena(ar)
	}
	return out, err
}

// predictPipelineReference runs the same request through the pre-arena
// pipeline: encoding/json decode, features.FromValues, a per-request job
// allocation, encoding/json response. It is the frozen request path the
// arena pipeline replaced, kept as its oracle and benchmark baseline. No
// request handler calls it: handlePredict has its own encoding/json branch
// for requests the arena scanner does not own.
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
	probs, err := mv.pool.submit(ctx, vecs)
	if err != nil {
		return nil, err
	}
	resp := PredictResponse{ID: req.ID, Predictions: make([]Prediction, len(vecs))}
	for i, p := range probs {
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
// reference: same request, same predictions, on the same server.
func TestPredictPipelineMatchesReference(t *testing.T) {
	s := pipelineTestServer(t, Config{Workers: 1, MaxBatch: 4})
	body := benchBody(t, 6)
	ctx := context.Background()

	fast, err := s.predictPipeline(ctx, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.predictPipelineReference(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	var fastResp, refResp PredictResponse
	if err := json.Unmarshal(fast, &fastResp); err != nil {
		t.Fatalf("fast-path response is not JSON: %v\n%s", err, fast)
	}
	if err := json.Unmarshal(ref, &refResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastResp, refResp) {
		t.Fatalf("pipelines disagree:\nfast %+v\nref  %+v", fastResp, refResp)
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
