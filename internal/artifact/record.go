package artifact

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"repro/internal/features"
	"repro/internal/interp"
	"repro/internal/ir"
)

// The record payload is a string table followed by varint fields:
//
//	strings   uvarint n, then n × (uvarint len, bytes); sorted, unique,
//	          and every entry referenced (function names, call names, the
//	          program name, the image ID, feature values)
//	profile   str Program; varint Insns, CondExec, CondTaken, Result
//	branches  map count, then n × (str func, varint block, varint executed,
//	          varint taken), in (func, block) order
//	edges     map count, then n × (str func, varint from, varint to,
//	          varint count), in (func, from, to) order
//	calls     map count, then n × (str name, varint count), in name order
//	outputs   uvarint n, then n × varint
//	foutputs  uvarint n, then n × 8-byte little-endian IEEE-754 bits
//	image     uvarint 0 for no image, else 1 + the image ID's str index
//	vectors   uvarint n, then n × (str func, varint block,
//	          features.NumFeatures × str value)
//
// "str" is a uvarint index into the string table. A map count is 0 for a
// nil map and n+1 for a map of n entries, so nil and empty maps decode as
// they were stored, and empty slices decode as nil, all as gob's did.
// Because the table is sorted, comparing indices compares the strings, so
// map entries are written in sorted key order and the encoding of a record
// is unique:
// decoding rejects anything the encoder would not have written (unsorted
// or duplicate keys, non-minimal varints, unused strings, trailing bytes),
// so every accepted payload re-encodes to the same bytes.

// errNilBranchCount rejects a profile the codec cannot represent.
var errNilBranchCount = errors.New("artifact: encode: profile has a nil branch count")

// encodeRecord returns the payload encoding of rec.
func encodeRecord(rec *Record) ([]byte, error) {
	p := rec.Profile
	if p == nil {
		return nil, errors.New("artifact: encode: record has no profile")
	}
	// Intern every string, then sort the table.
	index := make(map[string]uint64)
	intern := func(s string) { index[s] = 0 }
	intern(p.Program)
	for ref, c := range p.Branches {
		if c == nil {
			return nil, errNilBranchCount
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
	// Vector strings are interned per column (the function name, then each
	// feature), so the shared table sees each column's distinct values once.
	var cols [1 + features.NumFeatures]column
	vals := make([]string, len(cols)*columnScan)
	for k := range cols {
		cols[k].vals = vals[k*columnScan : k*columnScan : (k+1)*columnScan]
	}
	local := make([]uint32, len(rec.Vectors)*len(cols))
	for i := range rec.Vectors {
		v := &rec.Vectors[i]
		row := local[i*len(cols):]
		row[0] = cols[0].id(v.Ref.Func)
		for k, s := range v.Values {
			row[1+k] = cols[1+k].id(s)
		}
	}
	for k := range cols {
		for _, s := range cols[k].vals {
			intern(s)
		}
	}
	table := make([]string, 0, len(index))
	for s := range index {
		table = append(table, s)
	}
	slices.Sort(table)
	size := 0
	for i, s := range table {
		index[s] = uint64(i)
		size += len(s) + 1
	}
	global := make([]uint64, 0, len(cols)*columnScan)
	for k := range cols {
		c := &cols[k]
		at := len(global)
		for _, s := range c.vals {
			global = append(global, index[s])
		}
		c.global = global[at:len(global):len(global)]
	}

	b := make([]byte, 0, size+16*len(p.Branches)+20*len(p.Edges)+(4+features.NumFeatures)*len(rec.Vectors)+64)
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, s := range table {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, index[p.Program])
	for _, x := range []int64{p.Insns, p.CondExec, p.CondTaken, p.Result} {
		b = binary.AppendVarint(b, x)
	}

	type branch struct {
		fn    uint64
		block int
		c     *interp.BranchCount
	}
	branches := make([]branch, 0, len(p.Branches))
	for ref, c := range p.Branches {
		branches = append(branches, branch{index[ref.Func], ref.Block, c})
	}
	slices.SortFunc(branches, func(x, y branch) int {
		if x.fn != y.fn {
			return cmp.Compare(x.fn, y.fn)
		}
		return cmp.Compare(x.block, y.block)
	})
	b = appendMapCount(b, p.Branches == nil, len(branches))
	for _, br := range branches {
		b = binary.AppendUvarint(b, br.fn)
		b = binary.AppendVarint(b, int64(br.block))
		b = binary.AppendVarint(b, br.c.Executed)
		b = binary.AppendVarint(b, br.c.Taken)
	}

	type edge struct {
		fn       uint64
		from, to int
		n        int64
	}
	edges := make([]edge, 0, len(p.Edges))
	for e, n := range p.Edges {
		edges = append(edges, edge{index[e.Func], e.From, e.To, n})
	}
	slices.SortFunc(edges, func(x, y edge) int {
		switch {
		case x.fn != y.fn:
			return cmp.Compare(x.fn, y.fn)
		case x.from != y.from:
			return cmp.Compare(x.from, y.from)
		}
		return cmp.Compare(x.to, y.to)
	})
	b = appendMapCount(b, p.Edges == nil, len(edges))
	for _, e := range edges {
		b = binary.AppendUvarint(b, e.fn)
		b = binary.AppendVarint(b, int64(e.from))
		b = binary.AppendVarint(b, int64(e.to))
		b = binary.AppendVarint(b, e.n)
	}

	calls := make([]string, 0, len(p.Calls))
	for name := range p.Calls {
		calls = append(calls, name)
	}
	slices.Sort(calls)
	b = appendMapCount(b, p.Calls == nil, len(calls))
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
		row := local[i*len(cols) : (i+1)*len(cols)]
		b = binary.AppendUvarint(b, cols[0].global[row[0]])
		b = binary.AppendVarint(b, int64(rec.Vectors[i].Ref.Block))
		for k := 1; k < len(cols); k++ {
			b = binary.AppendUvarint(b, cols[k].global[row[k]])
		}
	}
	return b, nil
}

// column interns the values of one vector column. A column's vocabulary is
// a handful of categories, and consecutive vectors often repeat a value,
// so the last hit and then a scan of the values find most strings without
// hashing them; a column that grows past columnScan values switches to a
// map.
type column struct {
	vals   []string          // distinct values, in first-seen order
	last   uint32            // index of the previous hit
	ids    map[string]uint32 // value → index, once len(vals) > columnScan
	global []uint64          // value → string-table index, after sorting
}

const columnScan = 16

// id returns the column-local index of s, adding s on first sight. The
// last-hit check is kept apart from find so that it inlines.
func (c *column) id(s string) uint32 {
	if int(c.last) < len(c.vals) && c.vals[c.last] == s {
		return c.last
	}
	return c.find(s)
}

func (c *column) find(s string) uint32 {
	if c.ids != nil {
		if j, ok := c.ids[s]; ok {
			c.last = j
			return j
		}
	} else {
		for j, v := range c.vals {
			if v == s {
				c.last = uint32(j)
				return c.last
			}
		}
	}
	c.last = uint32(len(c.vals))
	c.vals = append(c.vals, s)
	if c.ids != nil {
		c.ids[s] = c.last
	} else if len(c.vals) > columnScan {
		c.ids = make(map[string]uint32, 2*len(c.vals))
		for j, v := range c.vals {
			c.ids[v] = uint32(j)
		}
	}
	return c.last
}

// appendMapCount writes a map's entry count, distinguishing nil from empty.
func appendMapCount(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// recordReader decodes a payload. The first malformed field sets bad and
// empties the input, so every later read fails too and the decoder can
// check once at the end.
type recordReader struct {
	b     []byte
	bad   bool
	table []string
	used  []bool
}

func (r *recordReader) fail() {
	r.bad = true
	r.b = nil
}

// uvarint reads a minimally encoded uvarint.
func (r *recordReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return x
}

// varint reads a zig-zag varint.
func (r *recordReader) varint() int64 {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// int reads a varint that must fit an int.
func (r *recordReader) int() int {
	x := r.varint()
	if int64(int(x)) != x {
		r.fail()
	}
	return int(x)
}

// count reads an element count, rejecting any count the remaining bytes
// cannot hold at minBytes per element, so a hostile count never drives a
// large allocation.
func (r *recordReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

// lenPrefixed reads a uvarint length and that many bytes.
func (r *recordReader) lenPrefixed() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// mapCount reads a map count: present is false for a nil map.
func (r *recordReader) mapCount(minBytes int) (n int, present bool) {
	u := r.uvarint()
	if u == 0 {
		return 0, false
	}
	if u-1 > uint64(len(r.b)/minBytes) {
		r.fail()
		return 0, false
	}
	return int(u - 1), true
}

// str reads a string-table reference, returning its index and value.
func (r *recordReader) str() (uint64, string) { return r.strAt(r.uvarint()) }

// strAt returns string-table entry i and marks it used.
func (r *recordReader) strAt(i uint64) (uint64, string) {
	if i >= uint64(len(r.table)) {
		r.fail()
		return 0, ""
	}
	r.used[i] = true
	return i, r.table[i]
}

// decodeRecord decodes a payload written by encodeRecord. ok is false for
// any payload encodeRecord would not have produced.
func decodeRecord(payload []byte) (*Record, bool) {
	r := &recordReader{b: payload}
	n := r.count(1)
	r.table = make([]string, n)
	r.used = make([]bool, n)
	for i := range r.table {
		l := r.uvarint()
		if l > uint64(len(r.b)) {
			r.fail()
			break
		}
		r.table[i] = string(r.b[:l])
		r.b = r.b[l:]
		if i > 0 && r.table[i-1] >= r.table[i] {
			r.fail()
			break
		}
	}

	p := &interp.Profile{}
	_, p.Program = r.str()
	p.Insns, p.CondExec, p.CondTaken, p.Result = r.varint(), r.varint(), r.varint(), r.varint()

	if n, ok := r.mapCount(4); ok {
		p.Branches = make(map[ir.BranchRef]*interp.BranchCount, n)
		counts := make([]interp.BranchCount, n)
		var lastFn uint64
		var lastBlock int
		for i := range counts {
			fn, name := r.str()
			block := r.int()
			if i > 0 && (fn < lastFn || fn == lastFn && block <= lastBlock) {
				r.fail()
				break
			}
			lastFn, lastBlock = fn, block
			counts[i] = interp.BranchCount{Executed: r.varint(), Taken: r.varint()}
			p.Branches[ir.BranchRef{Func: name, Block: block}] = &counts[i]
		}
	}

	if n, ok := r.mapCount(4); ok {
		p.Edges = make(map[interp.EdgeRef]int64, n)
		var last interp.EdgeRef
		var lastFn uint64
		for i := 0; i < n; i++ {
			fn, name := r.str()
			e := interp.EdgeRef{Func: name, From: r.int(), To: r.int()}
			if i > 0 && (fn < lastFn || fn == lastFn && (e.From < last.From || e.From == last.From && e.To <= last.To)) {
				r.fail()
				break
			}
			last, lastFn = e, fn
			p.Edges[e] = r.varint()
		}
	}

	if n, ok := r.mapCount(2); ok {
		p.Calls = make(map[string]int64, n)
		var lastFn uint64
		for i := 0; i < n; i++ {
			fn, name := r.str()
			if i > 0 && fn <= lastFn {
				r.fail()
				break
			}
			lastFn = fn
			p.Calls[name] = r.varint()
		}
	}

	if n := r.count(1); n > 0 {
		p.Outputs = make([]int64, n)
		for i := range p.Outputs {
			p.Outputs[i] = r.varint()
		}
	}
	if n := r.count(8); n > 0 {
		p.FOutputs = make([]float64, n)
		for i := range p.FOutputs {
			p.FOutputs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b))
			r.b = r.b[8:]
		}
	}

	var image string
	if i := r.uvarint(); i > 0 {
		if _, image = r.strAt(i - 1); image == "" {
			r.fail()
		}
	}

	var vecs []features.Vector
	if n := r.count(2 + features.NumFeatures); n > 0 {
		vecs = make([]features.Vector, n)
		for i := range vecs {
			v := &vecs[i]
			_, v.Ref.Func = r.str()
			v.Ref.Block = r.int()
			for k := range v.Values {
				_, v.Values[k] = r.str()
			}
		}
	}

	if r.bad || len(r.b) != 0 {
		return nil, false
	}
	for _, u := range r.used {
		if !u {
			return nil, false
		}
	}
	return &Record{Profile: p, Vectors: vecs, Image: image}, true
}
