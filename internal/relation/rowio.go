package relation

import (
	"fmt"
	"io"
)

// Row-at-a-time I/O. RowReader yields one tuple at a time; the zero-copy
// block readers (CSVBlockReader, JSONLBlockReader) implement it as a
// compatibility view, so each format has exactly one parser. ReadAll is
// the materializing loop ReadCSV/ReadJSONL run over those readers, Rows
// feeds an in-memory relation to streaming consumers, and Blocks adapts
// any row source to the block engine.

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
// without a columnar reader of their own (Rows, test doubles) feed the
// same block engine. A source
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
