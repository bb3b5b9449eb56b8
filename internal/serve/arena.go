// Zero-allocation request path for the vectors-only /predict shape.
//
// The serving hot path — a client submitting pre-extracted feature vectors —
// previously paid encoding/json twice (decode and encode) plus per-request
// slices, a job struct, and a done channel. This file replaces all of it
// with a pooled request arena: one sync.Pool'd struct owns the body buffer,
// the decoded vectors, a reusable prediction job, and the response buffer,
// so a steady-state vectors request performs zero heap allocations between
// reading the body and writing the response bytes (asserted by
// TestArenaPipelineZeroAlloc; the net/http connection machinery around it is
// outside the pooled region).
//
// The decoder is a hand-rolled scanner for the one fixed shape
//
//	{"id": "...", "vectors": [["BEQ", "F", ...], ...]}
//
// and nothing else: any other key, a malformed body, an over-limit vector
// count, a wrong-arity row, or an exotic escape (\uXXXX) makes it bail out,
// and the handler falls back to the encoding/json slow path, which
// reproduces the exact legacy behavior and error messages. The fast path
// therefore never has to be bug-for-bug compatible with encoding/json on
// weird inputs — it only has to win the common case and get out of the way.
//
// Lifetime contract: decoded strings are unsafe.String views into the
// arena's body and scratch buffers, so they are valid only until the arena
// is released. The arena is released after the response is written — except
// when the requester abandons a submitted job (timeout/cancel): the worker
// may still be reading the arena's vectors, so the arena is abandoned to the
// garbage collector instead of being returned to the pool (pool.submitJob
// reports reusability).
package serve

import (
	"context"
	"io"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"repro/internal/features"
)

// requestArena is the pooled per-request working set.
type requestArena struct {
	body    []byte            // raw request body
	scratch []byte            // escape-decoding overflow for string views
	vecs    []features.Vector // decoded feature vectors (views into body/scratch)
	out     []byte            // response encode buffer
	id      string            // request ID (view into body/scratch)
	job     *job              // reusable prediction job (buffered done channel)
}

var arenaPool = sync.Pool{New: func() any {
	return &requestArena{
		body: make([]byte, 0, 4096),
		out:  make([]byte, 0, 4096),
		job:  &job{done: make(chan struct{}, 1)},
	}
}}

func getArena() *requestArena { return arenaPool.Get().(*requestArena) }

// putArena returns the arena to the pool. Callers must not release an arena
// whose job a worker may still touch (see pool.submitJob). Stale string
// views in vecs' capacity keep at most one previous body/scratch generation
// alive — bounded retention, overwritten on next use.
func putArena(ar *requestArena) {
	ar.id = ""
	arenaPool.Put(ar)
}

// readBody reads r to EOF into the arena's reusable body buffer.
func (ar *requestArena) readBody(r io.Reader) ([]byte, error) {
	buf := ar.body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			ar.body = buf
			return buf, nil
		}
		if err != nil {
			ar.body = buf
			return nil, err
		}
	}
}

// prepareJob readies the arena's reusable job for one submission over the
// decoded vectors.
func (ar *requestArena) prepareJob(ctx context.Context) *job {
	j := ar.job
	n := len(ar.vecs)
	if cap(j.probs) < n {
		j.probs = make([]float64, n)
	}
	j.probs = j.probs[:n]
	j.ctx = ctx
	j.vecs = ar.vecs
	j.err = nil
	j.started = time.Time{}
	j.finished = time.Time{}
	j.enqueued = time.Now()
	return j
}

// view reinterprets b as a string without copying. The result aliases the
// arena's buffers and dies with the request.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// arenaParser scans the fixed vectors-only request shape.
type arenaParser struct {
	data []byte
	pos  int
	ar   *requestArena
}

func (p *arenaParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *arenaParser) eat(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// str scans a JSON string. The fast case (no backslash) returns a view
// straight into the body; escapes are decoded into the arena's scratch
// buffer. Unsupported escapes (\uXXXX) fail the scan, punting the request to
// the encoding/json slow path.
func (p *arenaParser) str() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	// Scan with locals: p's fields would be reloaded and stored every byte.
	data, start := p.data, p.pos
	i := start
	for i < len(data) && !strStop[data[i]] {
		i++
	}
	p.pos = i
	if i == len(data) {
		return "", false
	}
	switch data[i] {
	case '"':
		p.pos++
		return view(data[start:i]), true
	case '\\':
		return p.strSlow(start)
	default: // control character
		return "", false
	}
}

// strStop marks the bytes that end str's fast scan: the closing quote, a
// backslash, and the control characters JSON forbids inside strings. One
// table load per byte replaces three comparisons.
var strStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = true, true
	return t
}()

func (p *arenaParser) strSlow(start int) (string, bool) {
	sc := p.ar.scratch
	base := len(sc)
	sc = append(sc, p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			p.ar.scratch = sc
			// A later append may grow scratch and copy it elsewhere; this
			// view then pins the old backing array, which is exactly as
			// long-lived as the request. Safe, if briefly wasteful.
			return view(sc[base:]), true
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return "", false
			}
			switch p.data[p.pos] {
			case '"':
				sc = append(sc, '"')
			case '\\':
				sc = append(sc, '\\')
			case '/':
				sc = append(sc, '/')
			case 'n':
				sc = append(sc, '\n')
			case 't':
				sc = append(sc, '\t')
			case 'r':
				sc = append(sc, '\r')
			case 'b':
				sc = append(sc, '\b')
			case 'f':
				sc = append(sc, '\f')
			default: // \uXXXX and anything else: slow path's problem
				return "", false
			}
			p.pos++
		case c < 0x20:
			return "", false
		default:
			sc = append(sc, c)
			p.pos++
		}
	}
	return "", false
}

// row scans one vector: exactly NumFeatures strings, empty normalized to
// Unknown (mirroring features.FromValues). Wrong arity fails the scan so the
// slow path can produce its precise error.
func (p *arenaParser) row(v *features.Vector) bool {
	if !p.eat('[') {
		return false
	}
	n := 0
	p.ws()
	if p.eat(']') {
		return false // zero values: FromValues rejects, let it
	}
	for {
		s, ok := p.str()
		if !ok || n >= features.NumFeatures {
			return false
		}
		if s == "" {
			s = features.Unknown
		}
		v.Values[n] = s
		n++
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat(']') {
			return n == features.NumFeatures
		}
		return false
	}
}

func (p *arenaParser) vectors(maxVectors int) bool {
	ar := p.ar
	ar.vecs = ar.vecs[:0]
	if !p.eat('[') {
		return false
	}
	p.ws()
	if p.eat(']') {
		return true // empty: decode() rejects below, slow path answers 400
	}
	for {
		if len(ar.vecs) >= maxVectors {
			return false // over limit: slow path reproduces the 413
		}
		var zero features.Vector
		if len(ar.vecs) < cap(ar.vecs) {
			ar.vecs = ar.vecs[:len(ar.vecs)+1]
			ar.vecs[len(ar.vecs)-1] = zero
		} else {
			ar.vecs = append(ar.vecs, zero)
		}
		if !p.row(&ar.vecs[len(ar.vecs)-1]) {
			return false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		return p.eat(']')
	}
}

// decode attempts the fast-path scan. On success the arena holds the
// request ID and at least one feature vector; on failure (any shape this
// scanner doesn't own) the caller re-parses the body with encoding/json.
func (ar *requestArena) decode(data []byte, maxVectors int) bool {
	ar.id = ""
	ar.vecs = ar.vecs[:0]
	ar.scratch = ar.scratch[:0]
	p := arenaParser{data: data, ar: ar}
	p.ws()
	if !p.eat('{') {
		return false
	}
	sawVectors := false
	p.ws()
	if p.eat('}') {
		return false // no source, no vectors: slow path answers 400
	}
	for {
		p.ws()
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch key {
		case "id":
			s, ok := p.str()
			if !ok {
				return false
			}
			ar.id = s
		case "vectors":
			if !p.vectors(maxVectors) {
				return false
			}
			sawVectors = true
		default:
			// source/name/language/link_stdlib or an unknown key: the slow
			// path owns those semantics.
			return false
		}
		p.ws()
		if p.eat(',') {
			continue
		}
		if !p.eat('}') {
			return false
		}
		break
	}
	p.ws()
	if p.pos != len(p.data) {
		return false // trailing bytes: json.Decoder tolerated them, mimic via slow path
	}
	return sawVectors && len(ar.vecs) > 0
}

// appendJSONString appends s as a JSON string literal. Control characters
// escape as \u00XX; everything else (including multi-byte UTF-8) passes
// through byte-for-byte, which is valid JSON.
func appendJSONString(out []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c >= 0x20:
			out = append(out, c)
		case c == '\n':
			out = append(out, '\\', 'n')
		case c == '\t':
			out = append(out, '\\', 't')
		case c == '\r':
			out = append(out, '\\', 'r')
		default:
			out = append(out, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(out, '"')
}

// encodeResponse renders the fast-path PredictResponse into the arena's
// reusable buffer: same fields, order, and trailing newline as the
// encoding/json path, with branch refs synthesized as "#i" directly.
func (ar *requestArena) encodeResponse(probs []float64) []byte {
	out := ar.out[:0]
	out = append(out, '{')
	if ar.id != "" {
		out = append(out, `"id":`...)
		out = appendJSONString(out, ar.id)
		out = append(out, ',')
	}
	out = append(out, `"cached":false,"predictions":[`...)
	for i, p := range probs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"branch":"#`...)
		out = strconv.AppendInt(out, int64(i), 10)
		out = append(out, `","taken":`...)
		out = strconv.AppendBool(out, p > 0.5)
		out = append(out, `,"probability":`...)
		start := len(out)
		out = strconv.AppendFloat(out, p, 'g', -1, 64)
		end := len(out)
		out = append(out, `,"confidence":`...)
		if p < 0.5 {
			out = strconv.AppendFloat(out, 1-p, 'g', -1, 64)
		} else {
			// The confidence is p itself: reuse its digits.
			out = append(out, out[start:end]...)
		}
		out = append(out, '}')
	}
	out = append(out, ']', '}', '\n')
	ar.out = out
	return out
}
