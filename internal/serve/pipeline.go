package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/features"
)

// PredictPipeline runs the steady-state vectors request path without the
// HTTP plumbing around it: arena decode → pooled batch submit →
// hand-rendered response. The response bytes are appended to out (reusing
// its capacity; pass nil to allocate) and returned. This is the unit
// espbench -serve measures and the load test's throughput assertion drives;
// the /predict handler wraps exactly these stages.
//
// body must be a well-formed vectors-only request ({"id": ..., "vectors":
// [[...], ...]}); anything else is an error here rather than a silent fall
// back, so a benchmark can't accidentally time the wrong path.
func (s *Server) PredictPipeline(ctx context.Context, body, out []byte) ([]byte, error) {
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

// PredictPipelineReference runs the same request through the pre-arena
// pipeline: encoding/json decode, features.FromValues, a per-request job
// allocation, encoding/json response. It is the frozen float-era request
// path, kept verbatim as the baseline that BENCH_serve.json's speedup ratio
// (espbench -serve) and TestQuantServePipelineSpeedup measure against. No
// request handler calls it: handlePredict has its own encoding/json branch
// for requests the arena scanner does not own.
func (s *Server) PredictPipelineReference(ctx context.Context, body []byte) ([]byte, error) {
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
