package relation

import (
	"fmt"
	"sync"
)

// Columnar blocks: the storage and ingestion unit. A Block holds one
// batch of rows in column-major form — each attribute's values
// concatenated into one contiguous byte arena with an offset table — so
// the scan engine can hand a key column to the batched keyed-hash
// kernels as raw bytes (keyhash.Kernel.HashColumn) without ever
// materializing a string per field. A Relation stores its rows as a
// sequence of blocks it owns. Streaming passes instead recycle blocks
// through a sync.Pool (GetBlock/PutBlock): once the pool is warm, a
// block travels from the input stream through mark.ScanColumns without
// a single per-row allocation.
//
// The arenas are owned by the block and overwritten on the next
// Reset/ReadBlock into it. Callers that need a value to outlive the
// block must copy it (Column.String is the sanctioned materializer);
// the wmlint arenacopy analyzer flags stray string(...) conversions of
// arena-backed slices inside the block loops.

// Column is one attribute's values across a block: all field bytes
// concatenated in data, with offs[i]:offs[i+1] delimiting row i
// (len(offs) == rows+1, offs[0] == 0).
type Column struct {
	data []byte
	offs []int32
}

// Rows returns the number of values in the column.
func (c *Column) Rows() int { return len(c.offs) - 1 }

// Value returns row i's bytes. The slice aliases the block arena and is
// valid only until the block is reset or returned to the pool.
func (c *Column) Value(i int) []byte { return c.data[c.offs[i]:c.offs[i+1]] }

// String materializes row i as an owned string — the one sanctioned
// copy out of the arena; everything on the scan hot path works on the
// Value byte view instead.
func (c *Column) String(i int) string {
	//wmlint:ignore arenacopy String is the sanctioned arena materializer
	return string(c.Value(i))
}

// Raw exposes the column's arena and offset table for batched hashing
// (keyhash.Kernel.HashColumn operates on exactly this shape). Both
// slices alias block storage; same lifetime rules as Value.
func (c *Column) Raw() (data []byte, offs []int32) { return c.data, c.offs }

// reset empties the column, keeping capacity.
func (c *Column) reset() {
	c.data = c.data[:0]
	if cap(c.offs) == 0 {
		c.offs = make([]int32, 1, 64)
	}
	c.offs = c.offs[:1]
	c.offs[0] = 0
}

// appendBytes extends the currently open field.
func (c *Column) appendBytes(b []byte) { c.data = append(c.data, b...) }

// appendByte extends the currently open field by one byte.
func (c *Column) appendByte(b byte) { c.data = append(c.data, b) }

// closeRow seals the currently open field as the next row's value.
func (c *Column) closeRow() { c.offs = append(c.offs, int32(len(c.data))) }

// set replaces row i's value in place, shifting the later values of the
// column when the length changes: O(column), never more.
func (c *Column) set(i int, v string) {
	lo, hi := int(c.offs[i]), int(c.offs[i+1])
	if delta := len(v) - (hi - lo); delta != 0 {
		end := len(c.data)
		if delta > 0 {
			c.data = append(c.data, make([]byte, delta)...)
		}
		copy(c.data[hi+delta:], c.data[hi:end])
		c.data = c.data[:end+delta]
		for k := i + 1; k < len(c.offs); k++ {
			c.offs[k] += int32(delta)
		}
	}
	copy(c.data[lo:], v)
}

// Block is one batch of rows in columnar form, plus (optionally) the
// raw input byte spans the rows were parsed from — what the cluster
// coordinator slices shard payloads out of instead of re-serializing
// parsed tuples.
type Block struct {
	schema *Schema
	rows   int
	cols   []Column
	// raw holds the concatenated raw record spans when recording is on
	// (see RawShardSource.SetRecordRaw).
	raw []byte
	// gen increments on every Reset and every Relation.SetValue, giving
	// blocks a cheap identity: (pointer, gen) pins one content of one
	// block, which is how mark.BlockScratch knows when its per-block
	// memo went stale.
	gen uint64
}

// NewBlock returns an empty block shaped for schema. Prefer
// GetBlock/PutBlock on hot paths — pooled blocks keep their arenas.
func NewBlock(schema *Schema) *Block {
	b := &Block{}
	b.Reset(schema)
	return b
}

// Reset empties the block and shapes it for schema, keeping arena
// capacity. Readers call it at the top of every ReadBlock.
func (b *Block) Reset(schema *Schema) {
	b.schema = schema
	b.rows = 0
	b.gen++
	arity := schema.Arity()
	if cap(b.cols) < arity {
		b.cols = append(b.cols[:cap(b.cols)], make([]Column, arity-cap(b.cols))...)
	}
	b.cols = b.cols[:arity]
	for i := range b.cols {
		b.cols[i].reset()
	}
	b.raw = b.raw[:0]
}

// Schema returns the schema the block's columns conform to.
func (b *Block) Schema() *Schema { return b.schema }

// Rows returns the number of complete rows in the block.
func (b *Block) Rows() int { return b.rows }

// Gen returns the block's fill generation (see the gen field).
func (b *Block) Gen() uint64 { return b.gen }

// Col returns the column at schema position i.
func (b *Block) Col(i int) *Column { return &b.cols[i] }

// Value returns the bytes of attribute col in row. Same lifetime rules
// as Column.Value.
func (b *Block) Value(row, col int) []byte { return b.cols[col].Value(row) }

// Tuple materializes row i as an owned Tuple — the bridge behind
// Relation.Tuple and the block readers' RowReader view; it allocates one
// string per field.
func (b *Block) Tuple(i int) Tuple {
	t := make(Tuple, len(b.cols))
	for c := range b.cols {
		t[c] = b.cols[c].String(i)
	}
	return t
}

// AppendTuple adds one row to the block in schema attribute order.
// Mainly for tests and adapters; the block readers append parsed field
// bytes directly into the arenas.
func (b *Block) AppendTuple(t Tuple) error {
	if len(t) != len(b.cols) {
		return fmt.Errorf("relation: tuple arity %d, block arity %d", len(t), len(b.cols))
	}
	for c := range b.cols {
		col := &b.cols[c]
		col.data = append(col.data, t[c]...)
		col.closeRow()
	}
	b.rows++
	return nil
}

// appendRow copies row j of src (same schema) onto the end of b.
func (b *Block) appendRow(src *Block, j int) {
	for c := range b.cols {
		col := &b.cols[c]
		col.data = append(col.data, src.cols[c].Value(j)...)
		col.closeRow()
	}
	b.rows++
}

// clone returns an independent copy of b's rows (raw spans are not
// copied: stored blocks never carry them).
func (b *Block) clone() *Block {
	c := &Block{schema: b.schema, rows: b.rows, cols: make([]Column, len(b.cols)), gen: 1}
	for i, col := range b.cols {
		c.cols[i] = Column{
			data: append([]byte(nil), col.data...),
			offs: append([]int32(nil), col.offs...),
		}
	}
	return c
}

// RawBytes returns the concatenated raw record spans of the block's
// rows — exact input bytes for CSV (every span newline-terminated as in
// the input, except possibly a final record at EOF), newline-terminated
// object spans for JSONL. Empty unless the reader recorded raw spans.
// Aliases block storage; same lifetime rules as Value.
func (b *Block) RawBytes() []byte { return b.raw }

// blockPool recycles blocks across reads and workers; arenas stay warm,
// so steady-state ingestion does not allocate per block, let alone per
// row.
var blockPool = sync.Pool{New: func() any { return new(Block) }}

// GetBlock returns a pooled block reset for schema.
func GetBlock(schema *Schema) *Block {
	b := blockPool.Get().(*Block)
	b.Reset(schema)
	return b
}

// PutBlock returns a block to the pool. The caller must not touch the
// block (or any Value/Raw slice taken from it) afterwards.
func PutBlock(b *Block) {
	if b != nil {
		blockPool.Put(b)
	}
}

// BlockReader is the batched complement of RowReader: it fills a
// caller-owned Block with up to maxRows rows per call. Implementations
// reset b before filling it.
//
// ReadBlock returns the number of complete rows appended. At end of
// input it returns (0, io.EOF) — never rows together with io.EOF. A
// parse error is returned with the count of complete rows parsed before
// it; the error is sticky, and the block's committed rows remain valid.
type BlockReader interface {
	// Schema returns the schema the rows conform to.
	Schema() *Schema
	// ReadBlock resets b and fills it with up to maxRows rows.
	ReadBlock(b *Block, maxRows int) (int, error)
}

// RawShardSource is a BlockReader that can also report the exact input
// byte ranges its rows were parsed from, which lets the cluster
// coordinator build shard payloads by slicing the original stream
// (header + record spans) instead of parsing and re-printing every row.
// Both zero-copy block readers implement it.
type RawShardSource interface {
	BlockReader
	// SetRecordRaw toggles raw-span recording into the blocks passed to
	// ReadBlock. Off by default; turn it on before the first ReadBlock.
	SetRecordRaw(on bool)
	// RawHeader returns the raw bytes of the stream preamble — the CSV
	// header line including its newline — or nil for formats without one.
	RawHeader() []byte
	// FormatName returns the shard wire-format name ("csv" or "jsonl")
	// a worker needs to re-parse the sliced payload.
	FormatName() string
}
