package relation

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Streaming row I/O. The materializing codecs (ReadCSV/ReadJSONL) load a
// whole relation into memory; RowReader yields one tuple at a time so that
// internal/pipeline can watermark and detect over datasets that never fit
// in memory, chunk by chunk. RowWriter is the emitting half for streaming
// embed output. Both CSV and JSONL implement the pair, and the
// materializing codecs are thin loops over the readers so the formats
// cannot drift.

// RowReader yields a relation's tuples one at a time in stream order.
type RowReader interface {
	// Schema returns the schema the tuples conform to.
	Schema() *Schema
	// Read returns the next tuple, in schema attribute order. It returns
	// io.EOF after the last tuple. The returned tuple is owned by the
	// caller. Primary-key uniqueness is NOT enforced anywhere in a stream
	// — only a materialized Relation (ReadAll) can afford the index, so
	// streaming detection scores a duplicated key once per copy.
	Read() (Tuple, error)
}

// RowWriter consumes tuples one at a time.
type RowWriter interface {
	// Write appends one tuple, which must be in schema attribute order.
	Write(Tuple) error
	// Flush forces buffered rows out; call once after the last Write.
	Flush() error
}

// CSVRowReader streams tuples from CSV input. The header row is consumed
// by NewCSVRowReader; file column order may differ from schema order and
// is mapped by name, exactly as in ReadCSV.
type CSVRowReader struct {
	schema *Schema
	cr     *csv.Reader
	colFor []int // file column -> schema position
	row    int
}

// NewCSVRowReader reads and validates the CSV header, returning a reader
// positioned at the first data row.
func NewCSVRowReader(rd io.Reader, schema *Schema) (*CSVRowReader, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = schema.Arity()
	// Read copies the record into a caller-owned Tuple, so the csv.Reader
	// can safely recycle its field slice between rows.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	colFor := make([]int, len(header))
	seen := make(map[string]bool, len(header))
	for fileCol, name := range header {
		pos, ok := schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("relation: CSV column %q not in schema", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("relation: duplicate CSV column %q", name)
		}
		seen[name] = true
		colFor[fileCol] = pos
	}
	if len(seen) != schema.Arity() {
		return nil, fmt.Errorf("relation: CSV header has %d of %d schema attributes",
			len(seen), schema.Arity())
	}
	return &CSVRowReader{schema: schema, cr: cr, colFor: colFor, row: 1}, nil
}

// Schema returns the reader's schema.
func (r *CSVRowReader) Schema() *Schema { return r.schema }

// Read returns the next tuple or io.EOF.
func (r *CSVRowReader) Read() (Tuple, error) {
	rec, err := r.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV row %d: %w", r.row, err)
	}
	t := make(Tuple, r.schema.Arity())
	for fileCol, v := range rec {
		t[r.colFor[fileCol]] = v
	}
	r.row++
	return t, nil
}

// CSVRowWriter streams tuples out as CSV, header first.
type CSVRowWriter struct {
	schema *Schema
	cw     *csv.Writer
}

// NewCSVRowWriter writes the header row and returns a writer for the data
// rows.
func NewCSVRowWriter(w io.Writer, schema *Schema) (*CSVRowWriter, error) {
	cw := csv.NewWriter(w)
	header := make([]string, schema.Arity())
	for i := range header {
		header[i] = schema.Attr(i).Name
	}
	if err := cw.Write(header); err != nil {
		return nil, fmt.Errorf("relation: writing CSV header: %w", err)
	}
	return &CSVRowWriter{schema: schema, cw: cw}, nil
}

// Write appends one tuple.
func (w *CSVRowWriter) Write(t Tuple) error {
	if len(t) != w.schema.Arity() {
		return fmt.Errorf("relation: tuple arity %d, schema arity %d", len(t), w.schema.Arity())
	}
	return w.cw.Write(t)
}

// Flush flushes buffered rows.
func (w *CSVRowWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// JSONLRowReader streams tuples from JSON-lines input: one object per
// line keyed by attribute name, with exactly the schema's attributes.
type JSONLRowReader struct {
	schema *Schema
	dec    *json.Decoder
	obj    map[string]string // reused decode target; cleared before each row
	row    int
}

// NewJSONLRowReader returns a reader over JSONL input.
func NewJSONLRowReader(rd io.Reader, schema *Schema) *JSONLRowReader {
	return &JSONLRowReader{schema: schema, dec: json.NewDecoder(rd)}
}

// Schema returns the reader's schema.
func (r *JSONLRowReader) Schema() *Schema { return r.schema }

// Read returns the next tuple or io.EOF. Extra or missing keys are
// errors, as silent column loss would corrupt watermark detection.
func (r *JSONLRowReader) Read() (Tuple, error) {
	// Reuse one map across rows (a JSON null row nils it out — re-make).
	if r.obj == nil {
		r.obj = make(map[string]string, r.schema.Arity())
	} else {
		clear(r.obj)
	}
	if err := r.dec.Decode(&r.obj); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, fmt.Errorf("relation: reading JSONL row %d: %w", r.row, err)
	}
	obj := r.obj
	if len(obj) != r.schema.Arity() {
		return nil, fmt.Errorf("relation: JSONL row %d has %d keys, schema has %d",
			r.row, len(obj), r.schema.Arity())
	}
	t := make(Tuple, r.schema.Arity())
	for name, v := range obj {
		pos, ok := r.schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("relation: JSONL row %d key %q not in schema", r.row, name)
		}
		t[pos] = v
	}
	r.row++
	return t, nil
}

// JSONLRowWriter streams tuples out as JSON lines.
type JSONLRowWriter struct {
	schema *Schema
	bw     *bufio.Writer
	enc    *json.Encoder
	names  []string
}

// NewJSONLRowWriter returns a writer emitting one object per tuple.
func NewJSONLRowWriter(w io.Writer, schema *Schema) *JSONLRowWriter {
	bw := bufio.NewWriter(w)
	names := make([]string, schema.Arity())
	for i := range names {
		names[i] = schema.Attr(i).Name
	}
	return &JSONLRowWriter{schema: schema, bw: bw, enc: json.NewEncoder(bw), names: names}
}

// Write appends one tuple.
func (w *JSONLRowWriter) Write(t Tuple) error {
	if len(t) != w.schema.Arity() {
		return fmt.Errorf("relation: tuple arity %d, schema arity %d", len(t), w.schema.Arity())
	}
	obj := make(map[string]string, len(w.names))
	for i, name := range w.names {
		obj[name] = t[i]
	}
	return w.enc.Encode(obj)
}

// Flush flushes buffered rows.
func (w *JSONLRowWriter) Flush() error { return w.bw.Flush() }

// ReadAll drains a RowReader into a materialized Relation, enforcing
// primary-key uniqueness as it appends. Row numbers in errors are
// 1-based, matching the readers' own parse errors.
func ReadAll(rr RowReader) (*Relation, error) {
	out := New(rr.Schema())
	row := 1
	for {
		t, err := rr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if err := out.Append(t); err != nil {
			return nil, fmt.Errorf("row %d: %w", row, err)
		}
		row++
	}
}

// Rows returns a RowReader over a materialized relation, for feeding
// in-memory data to streaming consumers.
func Rows(r *Relation) RowReader { return &memRowReader{r: r} }

type memRowReader struct {
	r *Relation
	i int
}

func (m *memRowReader) Schema() *Schema { return m.r.Schema() }

func (m *memRowReader) Read() (Tuple, error) {
	if m.i >= m.r.Len() {
		return nil, io.EOF
	}
	t := m.r.Tuple(m.i).Clone()
	m.i++
	return t, nil
}

// Blocks adapts a RowReader to the BlockReader interface, so sources
// without a columnar reader of their own (Rows, the stdlib-backed
// CSV/JSONL readers, test doubles) feed the same block engine. A source
// that already is a BlockReader is returned unchanged.
func Blocks(rr RowReader) BlockReader {
	if br, ok := rr.(BlockReader); ok {
		return br
	}
	return &rowBlocks{rr: rr}
}

type rowBlocks struct {
	rr  RowReader
	err error // sticky, per the BlockReader contract
}

func (a *rowBlocks) Schema() *Schema { return a.rr.Schema() }

func (a *rowBlocks) ReadBlock(b *Block, maxRows int) (int, error) {
	b.Reset(a.rr.Schema())
	if maxRows <= 0 {
		maxRows = compatBlockRows
	}
	for a.err == nil && b.Rows() < maxRows {
		t, err := a.rr.Read()
		if err == nil {
			err = b.AppendTuple(t)
		}
		a.err = err
	}
	if a.err == io.EOF && b.Rows() > 0 {
		return b.Rows(), nil
	}
	return b.Rows(), a.err
}
