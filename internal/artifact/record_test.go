package artifact_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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
		// An image ID that is also a function name shares its string.
		Image: "main",
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

// mapEncodeRecord is the encoder oracle: the record encoding as it was
// first written, interning every string through one map (two map
// operations per feature value). encodeRecord must write the same bytes.
func mapEncodeRecord(rec *artifact.Record) ([]byte, error) {
	p := rec.Profile
	if p == nil {
		return nil, errors.New("artifact: encode: record has no profile")
	}
	index := make(map[string]uint64)
	intern := func(s string) { index[s] = 0 }
	intern(p.Program)
	for ref, c := range p.Branches {
		if c == nil {
			return nil, errors.New("artifact: encode: profile has a nil branch count")
		}
		intern(ref.Func)
	}
	for e := range p.Edges {
		intern(e.Func)
	}
	for name := range p.Calls {
		intern(name)
	}
	if rec.Image != "" {
		intern(rec.Image)
	}
	for i := range rec.Vectors {
		v := &rec.Vectors[i]
		intern(v.Ref.Func)
		for _, s := range v.Values {
			intern(s)
		}
	}
	table := make([]string, 0, len(index))
	for s := range index {
		table = append(table, s)
	}
	slices.Sort(table)
	for i, s := range table {
		index[s] = uint64(i)
	}
	mapCount := func(b []byte, isNil bool, n int) []byte {
		if isNil {
			return append(b, 0)
		}
		return binary.AppendUvarint(b, uint64(n)+1)
	}

	var b []byte
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, s := range table {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, index[p.Program])
	for _, x := range []int64{p.Insns, p.CondExec, p.CondTaken, p.Result} {
		b = binary.AppendVarint(b, x)
	}

	refs := make([]ir.BranchRef, 0, len(p.Branches))
	for ref := range p.Branches {
		refs = append(refs, ref)
	}
	slices.SortFunc(refs, func(x, y ir.BranchRef) int {
		return cmp.Or(cmp.Compare(x.Func, y.Func), cmp.Compare(x.Block, y.Block))
	})
	b = mapCount(b, p.Branches == nil, len(refs))
	for _, ref := range refs {
		c := p.Branches[ref]
		b = binary.AppendUvarint(b, index[ref.Func])
		b = binary.AppendVarint(b, int64(ref.Block))
		b = binary.AppendVarint(b, c.Executed)
		b = binary.AppendVarint(b, c.Taken)
	}

	edges := make([]interp.EdgeRef, 0, len(p.Edges))
	for e := range p.Edges {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(x, y interp.EdgeRef) int {
		return cmp.Or(cmp.Compare(x.Func, y.Func), cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	b = mapCount(b, p.Edges == nil, len(edges))
	for _, e := range edges {
		b = binary.AppendUvarint(b, index[e.Func])
		b = binary.AppendVarint(b, int64(e.From))
		b = binary.AppendVarint(b, int64(e.To))
		b = binary.AppendVarint(b, p.Edges[e])
	}

	calls := make([]string, 0, len(p.Calls))
	for name := range p.Calls {
		calls = append(calls, name)
	}
	slices.Sort(calls)
	b = mapCount(b, p.Calls == nil, len(calls))
	for _, name := range calls {
		b = binary.AppendUvarint(b, index[name])
		b = binary.AppendVarint(b, p.Calls[name])
	}

	b = binary.AppendUvarint(b, uint64(len(p.Outputs)))
	for _, x := range p.Outputs {
		b = binary.AppendVarint(b, x)
	}
	b = binary.AppendUvarint(b, uint64(len(p.FOutputs)))
	for _, x := range p.FOutputs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}

	if rec.Image == "" {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, index[rec.Image]+1)
	}

	b = binary.AppendUvarint(b, uint64(len(rec.Vectors)))
	for i := range rec.Vectors {
		v := &rec.Vectors[i]
		b = binary.AppendUvarint(b, index[v.Ref.Func])
		b = binary.AppendVarint(b, int64(v.Ref.Block))
		for _, s := range v.Values {
			b = binary.AppendUvarint(b, index[s])
		}
	}
	return b, nil
}

// wideRecord has n vectors whose feature 0 takes n distinct values, more
// than a 16-bit column index can hold, and whose other columns share
// values with each other and with the function and program names.
func wideRecord(n int) *artifact.Record {
	rec := &artifact.Record{Profile: &interp.Profile{Program: "LEAF",
		Calls: map[string]int64{"main": 1}}}
	rec.Vectors = make([]features.Vector, n)
	for i := range rec.Vectors {
		v := &rec.Vectors[i]
		v.Ref = ir.BranchRef{Func: "main", Block: i}
		if i%3 == 0 {
			v.Ref.Func = "f"
		}
		for k := range v.Values {
			v.Values[k] = features.Unknown
		}
		v.Values[0] = fmt.Sprintf("v%d", i)
		v.Values[1] = "LEAF"
		v.Values[2] = []string{"main", "f", "LEAF", "?"}[i%4]
	}
	return rec
}

// TestRecordEncoderMatchesOracle: encodeRecord's per-column interning
// writes exactly the bytes of the map-interning oracle, for every corpus
// program with edges off and on and as a linked program's record (image ID
// and own vectors), one generated program per mix, and
// synthetic records where columns share values or outgrow a 16-bit index.
func TestRecordEncoderMatchesOracle(t *testing.T) {
	var recs []*artifact.Record
	var entries []corpus.Entry
	entries = append(entries, corpus.All()...)
	if len(entries) < 46 {
		t.Fatalf("corpus has %d programs, expected the full 46", len(entries))
	}
	for _, m := range gencorpus.AllMixes() {
		entries = append(entries, gencorpus.Generate(7, m).Entry())
	}
	for _, e := range entries {
		prog, err := e.Compile(codegen.Default)
		if err != nil {
			t.Fatal(err)
		}
		vecs := features.ExtractAll(features.Collect(prog))
		for _, edges := range []bool{false, true} {
			cfg := e.RunConfig()
			cfg.CollectEdges = edges
			prof, err := interp.Run(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, &artifact.Record{Profile: prof, Vectors: vecs})
		}
		if prog.Image == nil {
			t.Fatalf("%s: Entry.Compile did not link the runtime library", e.Name)
		}
		recs = append(recs, artifact.NewRecord(prog, recs[len(recs)-1].Profile, vecs))
	}
	recs = append(recs, syntheticRecord(), wideRecord(1<<16+100))
	for i, rec := range recs {
		got, err := artifact.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mapEncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d (%s): encoding differs from the oracle's", i, rec.Profile.Program)
		}
	}
}

// minimalPayload is the smallest valid payload: a one-string table, the
// program name, four zero scalars, three nil maps, two empty slices, no
// image and no vectors.
var minimalPayload = []byte{1, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

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
		"unused string": {2, 1, 'a', 1, 'b', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		// Both strings used: the program name "b" and a call to "a".
		"unsorted table": {2, 1, 'b', 1, 'a', 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0},
		"bad index":      {1, 1, 'a', 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		// An image must name a table string, and not the empty one.
		"bad image index": {1, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0},
		"empty image":     {2, 0, 1, 'a', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0},
	}
	for name, b := range cases {
		if _, ok := artifact.DecodePayload(b); ok {
			t.Errorf("%s payload decoded", name)
		}
	}
	// The smallest valid records, for contrast: without an image, and
	// naming the program's own name as its image.
	if _, ok := artifact.DecodePayload(minimalPayload); !ok {
		t.Error("minimal record rejected")
	}
	if rec, ok := artifact.DecodePayload([]byte{1, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}); !ok || rec.Image != "a" {
		t.Error("minimal record with an image rejected")
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
