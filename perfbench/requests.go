package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/serve"
)

// request is one /predict body together with the answer the model must
// give for it, computed offline with core.Model.TakenProbabilities.
type request struct {
	source bool // a link_stdlib source request; otherwise feature vectors
	body   []byte
	refs   []string
	probs  []float64
}

// vectorsRequest asks for predictions of pre-extracted feature vectors.
func vectorsRequest(id string, m *core.Model, vecs []features.Vector) (request, error) {
	rows := make([][]string, len(vecs))
	refs := make([]string, len(vecs))
	for i := range vecs {
		rows[i] = vecs[i].Values[:]
		refs[i] = fmt.Sprintf("#%d", i)
	}
	body, err := json.Marshal(serve.PredictRequest{ID: id, Vectors: rows})
	if err != nil {
		return request{}, err
	}
	probs := make([]float64, len(vecs))
	m.TakenProbabilities(vecs, probs)
	return request{body: body, refs: refs, probs: probs}, nil
}

// sourceRequest asks the server to compile an entry's source, linked with
// the MinC runtime library as the corpus programs are, and predict every
// branch. refs and vecs are the branch sites and feature vectors of the
// entry's offline analysis: the answer must list those branches, in order.
func sourceRequest(id string, m *core.Model, e corpus.Entry, refs []string, vecs []features.Vector) (request, error) {
	body, err := json.Marshal(serve.PredictRequest{
		ID: id, Name: e.Name, Language: string(e.Language), LinkStdlib: true, Source: e.Source,
	})
	if err != nil {
		return request{}, err
	}
	probs := make([]float64, len(vecs))
	m.TakenProbabilities(vecs, probs)
	return request{source: true, body: body, refs: refs, probs: probs}, nil
}

// check verifies one response: status 200, not degraded, and every branch's
// probability bit-identical to the offline answer.
func (q *request) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Degraded {
		return fmt.Errorf("degraded response")
	}
	if len(resp.Predictions) != len(q.refs) {
		return fmt.Errorf("%d predictions, want %d", len(resp.Predictions), len(q.refs))
	}
	for i, p := range resp.Predictions {
		want := q.probs[i]
		if p.Branch != q.refs[i] || math.Float64bits(p.Probability) != math.Float64bits(want) || p.Taken != (want > 0.5) {
			return fmt.Errorf("prediction %d: got %s p=%v, want %s p=%v", i, p.Branch, p.Probability, q.refs[i], want)
		}
	}
	return nil
}
