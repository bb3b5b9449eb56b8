package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/ir"
	"repro/internal/testutil"
)

// arenaBody builds a vectors-only request body by hand so tests control the
// exact JSON surface (whitespace, escapes, key order).
func arenaBody(id string, rows [][]string) string {
	b, _ := json.Marshal(PredictRequest{ID: id, Vectors: rows})
	return string(b)
}

func fullRow(first string) []string {
	row := make([]string, features.NumFeatures)
	for i := range row {
		row[i] = "?"
	}
	row[0] = first
	return row
}

// TestArenaDecode pins the fast-path/slow-path split: bodies the scanner
// owns must decode to exactly what features.FromValues produces from the
// encoding/json parse, and every other shape must be refused so the slow
// path keeps its semantics.
func TestArenaDecode(t *testing.T) {
	rows := [][]string{fullRow("BEQ"), fullRow("BNE")}
	fast := []string{
		arenaBody("", rows),
		arenaBody("req-1", rows),
		// Whitespace everywhere the grammar allows it.
		strings.ReplaceAll(arenaBody("req-2", rows), ",", " ,\n\t "),
		// Escapes in the id and in a value.
		`{"id":"a\"b\\c\nd","vectors":[[` + strings.Repeat(`"\t",`, features.NumFeatures-1) + `"x"]]}`,
		// Key order flipped, duplicate key (last wins, same as encoding/json).
		`{"vectors":` + mustJSON(rows) + `,"id":"first","id":"second"}`,
		// Empty strings normalize to Unknown.
		`{"vectors":[[` + strings.Repeat(`"",`, features.NumFeatures-1) + `""]]}`,
		// Raw HTML characters and valid non-ASCII, unescaped and escaped.
		"{\"id\":\"<a&b>\u2028é日\",\"vectors\":" + mustJSON(rows) + "}",
		"{\"id\":\"\\t<é\u2029\\b\",\"vectors\":" + mustJSON(rows) + "}",
	}
	for _, body := range fast {
		ar := getArena()
		if !ar.decode([]byte(body), 4096) {
			t.Errorf("fast path refused %q", body)
			continue
		}
		var req PredictRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("reference parse of %q: %v", body, err)
		}
		if ar.id != req.ID {
			t.Errorf("id %q, want %q for %q", ar.id, req.ID, body)
		}
		if len(ar.vecs) != len(req.Vectors) {
			t.Fatalf("%d vectors, want %d for %q", len(ar.vecs), len(req.Vectors), body)
		}
		for i, vals := range req.Vectors {
			want, err := features.FromValues(vals)
			if err != nil {
				t.Fatal(err)
			}
			if ar.vecs[i].Values != want.Values {
				t.Errorf("vector %d: %v, want %v", i, ar.vecs[i].Values, want.Values)
			}
		}
		putArena(ar)
	}

	slow := map[string]string{
		"source request":   `{"source":"int main() {}"}`,
		"both":             `{"source":"x","vectors":` + mustJSON(rows) + `}`,
		"unknown key":      `{"vectors":` + mustJSON(rows) + `,"extra":1}`,
		"no vectors":       `{}`,
		"empty vectors":    `{"vectors":[]}`,
		"wrong arity":      `{"vectors":[["BEQ"]]}`,
		"row not strings":  `{"vectors":[[1,2]]}`,
		"unicode escape":   `{"id":"\u0041","vectors":` + mustJSON(rows) + `}`,
		"invalid UTF-8":    "{\"id\":\"a\xffb\",\"vectors\":" + mustJSON(rows) + "}",
		"invalid escaped":  "{\"id\":\"\\t\xc3\",\"vectors\":" + mustJSON(rows) + "}",
		"trailing garbage": arenaBody("x", rows) + "garbage",
		"truncated":        arenaBody("x", rows)[:20],
		"not an object":    `[1,2,3]`,
		"over limit":       `{"vectors":` + mustJSON([][]string{fullRow("a"), fullRow("b"), fullRow("c")}) + `}`,
	}
	for name, body := range slow {
		ar := getArena()
		limit := 4096
		if name == "over limit" {
			limit = 2
		}
		if ar.decode([]byte(body), limit) {
			t.Errorf("%s: fast path accepted %q, must fall back", name, body)
		}
		putArena(ar)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// encodingJSONBody is the reference rendering of a /predict answer: what
// json.NewEncoder(w).Encode writes for the PredictResponse the arena encoder
// is handed the parts of.
func encodingJSONBody(t *testing.T, id, program string, cached, degraded bool, vecs []features.Vector, probs []float64) []byte {
	t.Helper()
	resp := PredictResponse{ID: id, Program: program, Cached: cached, Degraded: degraded, Predictions: make([]Prediction, len(probs))}
	for i, p := range probs {
		branch := fmt.Sprintf("#%d", i)
		if vecs[i].Ref != (ir.BranchRef{}) {
			branch = vecs[i].Ref.String()
		}
		conf := p
		if conf < 0.5 {
			conf = 1 - conf
		}
		resp.Predictions[i] = Prediction{Branch: branch, Taken: p > 0.5, Probability: p, Confidence: conf}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostilePieces are the string fragments encoding/json does not copy as is
// (HTML characters, JSONP line separators, invalid UTF-8, short and \u00XX
// control escapes, quotes) mixed with plain and non-ASCII text.
var hostilePieces = []string{
	"req", "-7", " ", "main", "<", ">", "&", "\u2028", "\u2029", "\xff", "\xc3",
	"\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f", `"`, `\`, "/",
	"é", "日本", "\U0001F600", "\ufffd",
}

func randString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		sb.WriteString(hostilePieces[rng.Intn(len(hostilePieces))])
	}
	return sb.String()
}

func randProbability(rng *rand.Rand) float64 {
	switch rng.Intn(7) {
	case 0:
		return []float64{0, 1, 0.5, 1e-6, 1e-4, math.Nextafter(1, 0), math.SmallestNonzeroFloat64}[rng.Intn(7)]
	case 1: // the 'f' range where encoding/json writes 0.0000xxx
		return 1e-6 + float64(rng.Float64()*(1e-4-1e-6))
	case 2: // the 'e' range, e-7 through e-9
		return rng.Float64() * 1e-6
	case 3: // deep 'e' exponents
		return rng.Float64() * math.Pow(10, -float64(10+rng.Intn(300)))
	case 4: // subnormals
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1))
	case 5: // confidence 1-p near 1
		return 1 - float64(rng.Float64()*1e-5)
	default:
		return rng.Float64()
	}
}

// TestArenaResponseMatchesEncodingJSON is a seeded property test of the
// arena encoder against encoding/json: over hostile ids and program names,
// source branch refs and submitted "#i" vectors, both flags, and
// probabilities across every float form, the bytes must be identical.
func TestArenaResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ar := getArena()
	defer putArena(ar)
	for iter := 0; iter < 5000; iter++ {
		n := rng.Intn(6)
		vecs := make([]features.Vector, n)
		probs := make([]float64, n)
		for i := range vecs {
			if rng.Intn(2) == 0 {
				vecs[i].Ref = ir.BranchRef{Func: randString(rng), Block: rng.Intn(1000)}
			}
			probs[i] = randProbability(rng)
		}
		ar.id = randString(rng)
		program := randString(rng)
		cached, degraded := rng.Intn(2) == 0, rng.Intn(2) == 0
		got := ar.encodeResponse(program, cached, degraded, vecs, probs)
		want := encodingJSONBody(t, ar.id, program, cached, degraded, vecs, probs)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: arena and encoding/json disagree\narena: %q\njson:  %q", iter, got, want)
		}
	}
}

// TestArenaPipelineZeroAlloc is the tentpole allocation contract: the
// internal request pipeline — read body, decode, submit through the worker
// pool, encode the response — performs zero heap allocations at steady
// state. The net/http connection machinery around it is explicitly outside
// the pooled region.
func TestArenaPipelineZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold on plain builds")
	}
	model, data := testModel(t)
	_ = model
	srv, ts := testServer(t, Config{Workers: 2, MaxBatch: 8})
	ts.Close()

	body := []byte(arenaBody("alloc-test", vectorValues(data[0].Vectors[:4])))
	rd := bytes.NewReader(body)
	ctx := context.Background()

	run := func() {
		ar := getArena()
		rd.Reset(body)
		data, err := ar.readBody(rd)
		if err != nil {
			t.Fatal(err)
		}
		if !ar.decode(data, srv.cfg.MaxVectors) {
			t.Fatal("fast path refused the steady-state body")
		}
		j := ar.prepareJob(ctx, ar.vecs)
		reusable, err := srv.currentVersion().pool.submitJob(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reusable {
			t.Fatal("completed job reported not reusable")
		}
		ar.encodeResponse("", false, false, ar.vecs, j.probs)
		putArena(ar)
	}
	run() // warm the arena pool and the job's probs buffer
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("request pipeline allocates %v per request, want 0", allocs)
	}
}

// TestPredictVectorsFastPathEndToEnd drives the fast path through the real
// HTTP handler and checks the response against the model served offline —
// including an id that forces the escape-decoding path.
func TestPredictVectorsFastPathEndToEnd(t *testing.T) {
	model, data := testModel(t)
	_, ts := testServer(t, Config{})
	vecs := data[0].Vectors[:6]
	offline := make([]float64, len(vecs))
	model.TakenProbabilities(vecs, offline)

	for _, id := range []string{"plain-id", `quoted "id"`, ""} {
		resp, pr := postPredict(t, ts.URL, PredictRequest{ID: id, Vectors: vectorValues(vecs)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("id %q: status %d", id, resp.StatusCode)
		}
		if pr.ID != id {
			t.Errorf("id %q echoed as %q", id, pr.ID)
		}
		if pr.Degraded || pr.Cached {
			t.Errorf("id %q: degraded=%v cached=%v on the healthy fast path", id, pr.Degraded, pr.Cached)
		}
		if len(pr.Predictions) != len(vecs) {
			t.Fatalf("id %q: %d predictions, want %d", id, len(pr.Predictions), len(vecs))
		}
		for i, p := range pr.Predictions {
			if p.Branch != fmt.Sprintf("#%d", i) {
				t.Errorf("prediction %d branch %q", i, p.Branch)
			}
			if p.Probability != offline[i] {
				t.Errorf("prediction %d probability %v, offline %v", i, p.Probability, offline[i])
			}
			if p.Taken != (offline[i] > 0.5) {
				t.Errorf("prediction %d taken %v, want %v", i, p.Taken, offline[i] > 0.5)
			}
		}
	}
}
