package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestTraceSpanOrdering(t *testing.T) {
	tr := NewTrace("predict", "r1")
	end := tr.StartSpan(StageDecode)
	time.Sleep(time.Millisecond)
	end()
	end = tr.StartSpan(StageCompile)
	time.Sleep(time.Millisecond)
	end()
	// An externally timed span starting after the observed end of the
	// previous one, however long the sleeps above overran.
	last := tr.Spans[len(tr.Spans)-1]
	mid := tr.Start.Add(time.Duration(last.StartUS+last.DurUS+1000) * time.Microsecond)
	tr.AddSpan(StageForward, mid, 2*time.Millisecond)
	tr.SetStatus(200)
	tr.SetError(errors.New("boom"))

	if got := []string{tr.Spans[0].Stage, tr.Spans[1].Stage, tr.Spans[2].Stage}; got[0] != StageDecode || got[1] != StageCompile || got[2] != StageForward {
		t.Fatalf("span order %v", got)
	}
	prev := int64(-1)
	for _, sp := range tr.Spans {
		if sp.StartUS < prev {
			t.Errorf("span %s starts at %dµs before previous %dµs", sp.Stage, sp.StartUS, prev)
		}
		if sp.DurUS < 0 {
			t.Errorf("span %s negative duration", sp.Stage)
		}
		prev = sp.StartUS
	}
	if tr.Spans[1].StartUS == 0 {
		t.Error("second span has zero offset; offsets not relative to trace start")
	}
	if tr.Status != 200 || tr.Err != "boom" {
		t.Errorf("status/err = %d/%q", tr.Status, tr.Err)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x")()
	tr.AddSpan("y", time.Now(), time.Second)
	tr.SetStatus(500)
	tr.SetError(errors.New("e"))
	var rec *Recorder
	rec.Record(tr)
	if rec.Snapshot() != nil || rec.NextID() != "" {
		t.Error("nil recorder not inert")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Errorf("FromContext on empty ctx = %v", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace("e", "id")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(3, 0, nil)
	for i := 0; i < 5; i++ {
		rec.Record(NewTrace("e", fmt.Sprintf("r%d", i)))
	}
	got := rec.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(got))
	}
	// Oldest first: r2, r3, r4 survive.
	for i, want := range []string{"r2", "r3", "r4"} {
		if got[i].ID != want {
			t.Errorf("ring[%d] = %s, want %s", i, got[i].ID, want)
		}
	}
	// A partially-filled ring returns only what it has.
	rec = NewRecorder(8, 0, nil)
	rec.Record(NewTrace("e", "only"))
	if got := rec.Snapshot(); len(got) != 1 || got[0].ID != "only" {
		t.Errorf("partial ring snapshot %v", got)
	}
	if tr := rec.Snapshot()[0]; tr.DurUS < 0 {
		t.Error("Record did not stamp a duration")
	}
}

func TestRecorderSampledAccessLog(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(4, 0.5, &buf) // every 2nd trace logged
	for i := 0; i < 10; i++ {
		rec.Record(NewTrace("predict", fmt.Sprintf("r%d", i)))
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != 5 {
		t.Fatalf("%d access-log lines for 10 traces at sample=0.5, want 5", lines)
	}
	var first Trace
	if err := json.Unmarshal(bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0], &first); err != nil {
		t.Fatalf("access log line is not JSON: %v", err)
	}
	if first.Endpoint != "predict" {
		t.Errorf("logged endpoint %q", first.Endpoint)
	}

	// sample=0 or nil writer: no lines.
	buf.Reset()
	rec = NewRecorder(4, 0, &buf)
	rec.Record(NewTrace("e", "x"))
	if buf.Len() != 0 {
		t.Error("sample=0 still logged")
	}
}

func TestRecorderNextID(t *testing.T) {
	rec := NewRecorder(1, 0, nil)
	a, b := rec.NextID(), rec.NextID()
	if a == b || a == "" {
		t.Errorf("ids %q, %q", a, b)
	}
}
