// The pooled request arena behind every /predict answer.
//
// One sync.Pool'd struct owns a request's working set: the body buffer, the
// fast-scanned vectors, a reusable prediction job, and the response buffer.
// Every request is answered through the arena's job and rendered by
// encodeResponse, which writes exactly the bytes json.NewEncoder(w).Encode
// writes for the same PredictResponse. A steady-state vectors request thus
// performs zero heap allocations between reading the body and writing the
// response (asserted by TestArenaPipelineZeroAlloc; the net/http connection
// machinery around it is outside the pooled region).
//
// The decoder is a hand-rolled scanner for the one fixed shape
//
//	{"id": "...", "vectors": [["BEQ", "F", ...], ...]}
//
// and nothing else: any other key, a malformed body, an over-limit vector
// count, a wrong-arity row, or an exotic escape (\uXXXX) makes it bail out,
// and the handler re-decodes the body with encoding/json, which owns source
// requests and every error message. The scanner only has to win the common
// case and get out of the way.
//
// Lifetime contract: decoded strings are unsafe.String views into the
// arena's body and scratch buffers, so they are valid only until the arena
// is released. The arena is released after the response is written — except
// when the requester abandons a submitted job (timeout/cancel): the worker
// may still read the job's vectors and write its probabilities, so the arena
// is abandoned to the garbage collector instead of being returned to the
// pool (pool.submitJob reports reusability).
package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
	"unsafe"

	"repro/internal/features"
	"repro/internal/ir"
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

// prepareJob readies the arena's reusable job for one submission over vecs:
// the arena's own scanned vectors, or a compiled program's. The job only
// reads vecs; they are never kept in ar.vecs, whose capacity the next scan
// appends into.
func (ar *requestArena) prepareJob(ctx context.Context, vecs []features.Vector) *job {
	j := ar.job
	n := len(vecs)
	if cap(j.probs) < n {
		j.probs = make([]float64, n)
	}
	j.probs = j.probs[:n]
	j.ctx = ctx
	j.vecs = vecs
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
			// encoding/json decodes invalid UTF-8 to U+FFFD, so an id
			// holding any takes its path: the echo must be what it decodes.
			// Feature values need no check; both forms are unseen values.
			s, ok := p.str()
			if !ok || !utf8.ValidString(s) {
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

// appendJSONString appends s as encoding/json writes it. Printable ASCII
// other than the quote, the backslash, and the HTML characters <, > and &
// is copied as is; any other string is rendered by json.Marshal itself,
// which allocates, but only for rare strings.
func appendJSONString(out []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(out, b...)
		}
	}
	out = append(out, '"')
	out = append(out, s...)
	return append(out, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form outside [1e-6, 1e21) with a one-digit negative
// exponent unpadded (e-07 becomes e-7).
func appendJSONFloat(out []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	out = strconv.AppendFloat(out, f, format, -1, 64)
	if n := len(out); format == 'e' && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
		out[n-2] = out[n-1]
		out = out[:n-1]
	}
	return out
}

// encodeResponse renders a 200 /predict body into the arena's reusable
// buffer: byte for byte what encoding/json writes for the PredictResponse
// with the arena's id, the given program, flags, and one prediction per
// vector, including the trailing newline. A branch is named by its vector's
// Ref, or "#i" for a submitted vector, which has none.
func (ar *requestArena) encodeResponse(program string, cached, degraded bool, vecs []features.Vector, probs []float64) []byte {
	out := append(ar.out[:0], '{')
	if ar.id != "" {
		out = append(out, `"id":`...)
		out = appendJSONString(out, ar.id)
		out = append(out, ',')
	}
	if program != "" {
		out = append(out, `"program":`...)
		out = appendJSONString(out, program)
		out = append(out, ',')
	}
	out = append(out, `"cached":`...)
	out = strconv.AppendBool(out, cached)
	if degraded {
		out = append(out, `,"degraded":true`...)
	}
	out = append(out, `,"predictions":[`...)
	for i, p := range probs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"branch":`...)
		if ref := vecs[i].Ref; ref == (ir.BranchRef{}) {
			out = append(out, `"#`...)
			out = strconv.AppendInt(out, int64(i), 10)
			out = append(out, '"')
		} else {
			out = appendJSONString(out, ref.String())
		}
		out = append(out, `,"taken":`...)
		out = strconv.AppendBool(out, p > 0.5)
		out = append(out, `,"probability":`...)
		start := len(out)
		out = appendJSONFloat(out, p)
		end := len(out)
		out = append(out, `,"confidence":`...)
		if p < 0.5 {
			out = appendJSONFloat(out, 1-p)
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
