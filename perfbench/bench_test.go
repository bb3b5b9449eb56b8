package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gencorpus"
	"repro/internal/obs"
	"repro/internal/serve"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples was reported; it has only 9 beyond it")
	}
	xs = append(xs, 1000)
	v, err := percentile(xs, 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("median of 19 samples was reported; it has only 9 beyond it")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("median of 1..20 = %v, %v; want 10", v, err)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestOpenLoopLatencyFromDueTime stalls the first request and checks that
// the requests queued behind it are charged from their due times, and that
// the generator itself kept to schedule.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(80 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 1)
	defer g.close()
	sched := []arrival{{0, 0}, {10 * time.Millisecond, 0}, {20 * time.Millisecond, 0}}
	res := g.run([][]byte{[]byte("{}")}, sched, func(int) int { return 0 }, time.Second)
	if res.abandoned != 0 {
		t.Fatalf("%d requests abandoned", res.abandoned)
	}
	for i, o := range res.outcomes[1:] {
		wait := o.sent - o.due
		if wait < 50*time.Millisecond {
			t.Errorf("request %d waited %v for a connection; want the stall counted", i+1, wait)
		}
		if o.done-o.due < wait {
			t.Errorf("request %d latency %v is shorter than its wait %v", i+1, o.done-o.due, wait)
		}
	}
	for i, o := range res.outcomes {
		if o.late < 0 || o.late > 40*time.Millisecond {
			t.Errorf("request %d dispatched %v late; the generator must not wait for connections", i, o.late)
		}
	}
}

func TestStreamAndCorpusAreSeedDeterministic(t *testing.T) {
	a := schedule(3, 600, time.Second)
	if b := schedule(3, 600, time.Second); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if c := schedule(4, 600, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	s := stream(3, 2000)
	if !reflect.DeepEqual(s, stream(3, 2000)) {
		t.Fatal("the same seed drew two different request streams")
	}
	if reflect.DeepEqual(s, stream(4, 2000)) {
		t.Fatal("different seeds drew the same request stream")
	}
	var vectors, distinct = 0, map[int]bool{}
	for _, i := range s {
		if i >= poolSize {
			vectors++
		} else {
			distinct[i] = true
		}
	}
	if vectors < 900 || vectors > 1100 || len(distinct) <= 128 {
		t.Fatalf("stream has %d vectors requests and %d distinct programs; want about half, and more programs than the LRU holds",
			vectors, len(distinct))
	}
	sources := func(seed int64) []byte {
		var buf bytes.Buffer
		for _, e := range (gencorpus.Spec{Seed: seed, N: 40}).Entries() {
			json.NewEncoder(&buf).Encode(e)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(sources(3), sources(3)) {
		t.Fatal("the same seed generated two different corpora")
	}

	pd, err := frontEnd(gencorpus.Spec{Seed: 3, N: 1}.Entries()[0])
	if err != nil {
		t.Fatal(err)
	}
	var ex []core.Example
	for i, v := range pd.Vectors {
		ex = append(ex, core.Example{Vector: v, Target: float64(i%2) * 0.9, Weight: 1})
	}
	m := core.TrainExamples(ex, core.Config{Net: neuralEpochs(2)})
	build := func() []request {
		pool, err := newServePool()
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := pool.requests(m)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	r1, r2 := build(), build()
	if len(r1) != poolSize+distinctVectors {
		t.Fatalf("%d distinct requests, want %d", len(r1), poolSize+distinctVectors)
	}
	for i := range r1 {
		if r1[i].source != (i < poolSize) || !r1[i].source && len(r1[i].refs) != requestVectors {
			t.Fatalf("request %d: source %v with %d answers", i, r1[i].source, len(r1[i].refs))
		}
		if !bytes.Equal(r1[i].body, r2[i].body) || !reflect.DeepEqual(r1[i].probs, r2[i].probs) {
			t.Fatalf("request %d differs between two builds from one seed", i)
		}
	}
}

func TestCheckRejectsDegradedAndInexactAnswers(t *testing.T) {
	q := request{refs: []string{"#0"}, probs: []float64{0.7}}
	answer := func(p float64, degraded bool) []byte {
		data, _ := json.Marshal(serve.PredictResponse{Degraded: degraded,
			Predictions: []serve.Prediction{{Branch: "#0", Taken: p > 0.5, Probability: p, Confidence: p}}})
		return data
	}
	if err := q.check(http.StatusOK, answer(0.7, false)); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	if q.check(http.StatusOK, answer(0.7, true)) == nil {
		t.Error("degraded answer accepted")
	}
	if q.check(http.StatusOK, answer(math.Nextafter(0.7, 1), false)) == nil {
		t.Error("answer one ulp off accepted")
	}
	if q.check(http.StatusTooManyRequests, answer(0.7, false)) == nil {
		t.Error("shed request accepted")
	}
}

func TestSpanUnionCountsOverlapOnce(t *testing.T) {
	spans := []obs.Span{{Stage: "a", StartUS: 0, DurUS: 10}, {Stage: "b", StartUS: 5, DurUS: 10},
		{Stage: "c", StartUS: 30, DurUS: 5}, {Stage: "d", StartUS: 31, DurUS: 1}}
	if got := spanUnionUS(spans); got != 20 {
		t.Fatalf("union = %d, want 20", got)
	}
}

func TestParseCounters(t *testing.T) {
	text := "# HELP espserve_shed_total x\nespserve_shed_total 3\nespserve_cache_hits_total 12\nespserve_requests_total{endpoint=\"predict\"} 9\n"
	got := parseCounters(text, []string{"espserve_shed_total", "espserve_cache_hits_total"})
	if got["espserve_shed_total"] != 3 || got["espserve_cache_hits_total"] != 12 || len(got) != 2 {
		t.Fatalf("parsed %v", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics this
// command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), perfbench prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
