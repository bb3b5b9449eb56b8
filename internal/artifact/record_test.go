package artifact_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/gencorpus"
	"repro/internal/interp"
	"repro/internal/ir"
)

// codecRecords analyzes corpus programs and generated programs into cache
// records.
func codecRecords(t testing.TB, names []string, gen int) []*artifact.Record {
	t.Helper()
	var entries []corpus.Entry
	for _, name := range names {
		e, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("no corpus program %q", name)
		}
		entries = append(entries, e)
	}
	entries = append(entries, gencorpus.Spec{Seed: 5, N: gen}.Entries()...)
	var out []*artifact.Record
	for _, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := interp.Run(prog, e.RunConfig())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &artifact.Record{Profile: prof, Vectors: features.ExtractAll(features.Collect(prog))})
	}
	return out
}

// gobRoundTrip is the oracle: the record as the gob payload of format
// espa-3 decoded it.
func gobRoundTrip(t testing.TB, rec *artifact.Record) *artifact.Record {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatal(err)
	}
	var out artifact.Record
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// syntheticRecord covers what the corpus records may not: negative values,
// float outputs with odd bit patterns, zero counts, and every map and slice
// in a few bytes.
func syntheticRecord() *artifact.Record {
	var v features.Vector
	v.Ref = ir.BranchRef{Func: "f", Block: -1}
	v.Values[3] = "LEAF"
	return &artifact.Record{
		Profile: &interp.Profile{
			Program: "synthetic", Insns: 1 << 40, CondExec: 3, CondTaken: 2, Result: -7,
			Branches: map[ir.BranchRef]*interp.BranchCount{{Func: "f", Block: 2}: {}, {Func: "a", Block: 9}: {Executed: 5, Taken: 5}},
			Edges:    map[interp.EdgeRef]int64{{Func: "f", From: 1, To: 0}: -1, {Func: "f", From: 0, To: 3}: 7},
			Calls:    map[string]int64{"main": 1, "f": 1 << 50},
			Outputs:  []int64{math.MinInt64, 0, math.MaxInt64},
			FOutputs: []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1.5},
		},
		Vectors: []features.Vector{v},
	}
}

// TestRecordCodecMatchesGob: decoding an encoded record gives exactly what
// a gob round trip gave, for corpus programs and generated programs, and
// the encoding is deterministic.
func TestRecordCodecMatchesGob(t *testing.T) {
	recs := codecRecords(t, []string{"bc", "gzip", "tomcatv", "boyer"}, 10)
	recs = append(recs, syntheticRecord())
	for i, rec := range recs {
		payload, err := artifact.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := artifact.DecodePayload(payload)
		if !ok {
			t.Fatalf("record %d: payload does not decode", i)
		}
		want := gobRoundTrip(t, rec)
		// NaN != NaN under DeepEqual; compare float outputs by bits.
		gotF, wantF := got.Profile.FOutputs, want.Profile.FOutputs
		if len(gotF) != len(wantF) {
			t.Fatalf("record %d: %d float outputs, want %d", i, len(gotF), len(wantF))
		}
		for k := range gotF {
			if math.Float64bits(gotF[k]) != math.Float64bits(wantF[k]) {
				t.Fatalf("record %d: float output %d differs", i, k)
			}
		}
		got.Profile.FOutputs, want.Profile.FOutputs = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: codec round trip differs from gob's", i)
		}
		again, err := artifact.EncodeRecord(got)
		if err != nil {
			t.Fatal(err)
		}
		got.Profile.FOutputs = gotF
		if again, _ = artifact.EncodeRecord(got); !bytes.Equal(again, payload) {
			t.Fatalf("record %d: re-encoding a decoded record changed its bytes", i)
		}
	}
}

// TestRecordCodecEmpty: empty maps stay empty and nil maps nil, empty slices
// decode as nil, all as gob's did, and a record without a profile does not
// encode.
func TestRecordCodecEmpty(t *testing.T) {
	rec := &artifact.Record{
		Profile: &interp.Profile{Program: "empty", Branches: map[ir.BranchRef]*interp.BranchCount{},
			Edges: map[interp.EdgeRef]int64{}, Calls: map[string]int64{}, Outputs: []int64{}},
		Vectors: []features.Vector{},
	}
	payload, err := artifact.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := artifact.DecodePayload(payload)
	if !ok {
		t.Fatal("empty record does not decode")
	}
	if want := gobRoundTrip(t, rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty record decodes as %+v, gob gave %+v", got.Profile, want.Profile)
	}
	if _, err := artifact.EncodeRecord(&artifact.Record{}); err == nil {
		t.Fatal("a record without a profile encoded")
	}
}

// minimalPayload is the smallest valid payload: a one-string table, the
// program name, four zero scalars, three nil maps and three empty slices.
var minimalPayload = []byte{1, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

// TestRecordCodecRejects: malformed payloads are misses, not panics or
// wrong records.
func TestRecordCodecRejects(t *testing.T) {
	payload, err := artifact.EncodeRecord(codecRecords(t, []string{"bc"}, 0)[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         nil,
		"trailing byte": append(append([]byte(nil), payload...), 0),
		"truncated":     payload[:len(payload)-1],
		"huge count":    {0xff, 0xff, 0xff, 0xff, 0x0f},
		"non-minimal":   append([]byte{0x81, 0x00}, payload[1:]...),
		"unused string": {2, 1, 'a', 1, 'b', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		// Both strings used: the program name "b" and a call to "a".
		"unsorted table": {2, 1, 'b', 1, 'a', 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0},
		"bad index":      {1, 1, 'a', 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, ok := artifact.DecodePayload(b); ok {
			t.Errorf("%s payload decoded", name)
		}
	}
	// The smallest valid record, for contrast.
	if _, ok := artifact.DecodePayload(minimalPayload); !ok {
		t.Error("minimal record rejected")
	}
}

// FuzzDecodeRecord: decoding never panics, and any payload it accepts
// re-encodes to the same bytes.
//
// CI runs this for a short budget (go test -fuzz=FuzzDecodeRecord -fuzztime=20s).
func FuzzDecodeRecord(f *testing.F) {
	// Small seeds: the fuzzer minimizes every new input, which is slow on
	// multi-kilobyte corpus records.
	payload, err := artifact.EncodeRecord(syntheticRecord())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(minimalPayload)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, ok := artifact.DecodePayload(payload)
		if !ok {
			return
		}
		again, err := artifact.EncodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, payload)
		}
	})
}

// BenchmarkRecordCodec times the record codec against the gob payload it
// replaced, on generated-program records.
func BenchmarkRecordCodec(b *testing.B) {
	recs := codecRecords(b, nil, 20)
	payloads := make([][]byte, len(recs))
	gobs := make([][]byte, len(recs))
	var size, gobSize int
	for i, rec := range recs {
		payloads[i], _ = artifact.EncodeRecord(rec)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			b.Fatal(err)
		}
		gobs[i] = buf.Bytes()
		size += len(payloads[i])
		gobSize += len(gobs[i])
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportMetric(float64(size)/float64(len(recs)), "B/record")
		for i := 0; i < b.N; i++ {
			if _, err := artifact.EncodeRecord(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := artifact.DecodePayload(payloads[i%len(recs)]); !ok {
				b.Fatal("decode failed")
			}
		}
	})
	b.Run("gob-encode", func(b *testing.B) {
		b.ReportMetric(float64(gobSize)/float64(len(recs)), "B/record")
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var rec artifact.Record
			if err := gob.NewDecoder(bytes.NewReader(gobs[i%len(recs)])).Decode(&rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
