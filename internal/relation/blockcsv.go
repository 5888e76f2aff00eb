package relation

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// CSVBlockReader is the zero-copy CSV ingestion path: a bufio-backed
// parser that slices fields straight out of the read buffer into a
// Block's column arenas, allocating nothing per row once the block pool
// is warm. It is the only CSV parser: ReadCSV materializes through it.
// Parsing semantics are bit-identical to encoding/csv configured with a
// comma separator, strict quotes, no comment lines and FieldsPerRecord
// pinned to the schema arity: \r\n normalization, blank-line skipping,
// quoted fields spanning lines, "" escapes, bare/stray-quote errors —
// the fuzz tests drive it and a stdlib-backed oracle reader (kept in
// rowio_test.go) over the same inputs and demand identical row streams.
//
// The header row is consumed by NewCSVBlockReader; file column order
// may differ from schema order and is mapped by name.
//
// CSVBlockReader implements both BlockReader (the zero-allocation
// path) and RowReader (a compatibility view that materializes tuples
// from an internal block); do not interleave Read and ReadBlock calls
// on one reader.
type CSVBlockReader struct {
	schema *Schema
	br     *bufio.Reader
	colFor []int // file column -> schema position
	// scrap absorbs header fields and any fields beyond the mapped
	// arity, so an over-long record parses to its end before the
	// field-count error surfaces (as in encoding/csv).
	scrap Column
	// spill assembles physical lines longer than the bufio buffer.
	spill     []byte
	rawHeader []byte
	recordRaw bool
	row       int   // next data row, 1-based (error reporting)
	err       error // sticky terminal parse/read error

	// rowBlk/rowIdx back the RowReader compatibility view.
	rowBlk *Block
	rowIdx int
}

// compatBlockRows sizes the internal block of the RowReader
// compatibility path and the default ReadBlock batch.
const compatBlockRows = 512

// NewCSVBlockReader reads and validates the CSV header, returning a
// reader positioned at the first data row.
func NewCSVBlockReader(rd io.Reader, schema *Schema) (*CSVBlockReader, error) {
	r := &CSVBlockReader{schema: schema, br: bufio.NewReader(rd), row: 1}
	r.scrap.reset()
	nf, err := r.parseRecord(nil, &r.rawHeader)
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	if nf != schema.Arity() {
		return nil, fmt.Errorf("relation: reading CSV header: record has %d fields, schema has %d",
			nf, schema.Arity())
	}
	colFor := make([]int, nf)
	seen := make(map[string]bool, nf)
	for fileCol := 0; fileCol < nf; fileCol++ {
		name := r.scrap.String(fileCol)
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
	r.colFor = colFor
	r.scrap.reset()
	return r, nil
}

// Schema returns the reader's schema.
func (r *CSVBlockReader) Schema() *Schema { return r.schema }

// SetRecordRaw toggles raw record-span recording into filled blocks.
func (r *CSVBlockReader) SetRecordRaw(on bool) { r.recordRaw = on }

// RawHeader returns the raw header bytes, including the newline.
func (r *CSVBlockReader) RawHeader() []byte { return r.rawHeader }

// FormatName returns "csv".
func (r *CSVBlockReader) FormatName() string { return "csv" }

// ReadBlock resets b and fills it with up to maxRows rows (<= 0 means a
// default batch). See BlockReader for the contract.
func (r *CSVBlockReader) ReadBlock(b *Block, maxRows int) (int, error) {
	b.Reset(r.schema)
	if r.err != nil {
		return 0, r.err
	}
	if maxRows <= 0 {
		maxRows = compatBlockRows
	}
	r.scrap.reset()
	var rawDst *[]byte
	if r.recordRaw {
		rawDst = &b.raw
	}
	n := 0
	for n < maxRows {
		nf, err := r.parseRecord(b, rawDst)
		if err == io.EOF {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		if err != nil {
			r.err = err
			return n, err
		}
		if nf != r.schema.Arity() {
			r.err = fmt.Errorf("relation: reading CSV row %d: record has %d fields, schema has %d",
				r.row, nf, r.schema.Arity())
			return n, r.err
		}
		b.rows++
		n++
		r.row++
	}
	return n, nil
}

// Read returns the next tuple or io.EOF — the RowReader compatibility
// view, materializing tuples from an internal block. Rows parsed before
// a mid-block error are yielded first, exactly like the stdlib oracle.
func (r *CSVBlockReader) Read() (Tuple, error) {
	if r.rowBlk == nil {
		r.rowBlk = NewBlock(r.schema)
	}
	if r.rowIdx >= r.rowBlk.Rows() {
		n, err := r.ReadBlock(r.rowBlk, compatBlockRows)
		if n == 0 && err != nil {
			return nil, err
		}
		r.rowIdx = 0
	}
	t := r.rowBlk.Tuple(r.rowIdx)
	r.rowIdx++
	return t, nil
}

// parseErr positions a terminal parse error at the current data row.
func (r *CSVBlockReader) parseErr(msg string) error {
	return fmt.Errorf("relation: reading CSV row %d: parse error: %s", r.row, msg)
}

// readLine returns the next physical line with the terminating newline
// stripped and \r\n normalized exactly as encoding/csv does (a trailing
// \r on the last, newline-less line of the file is dropped too). raw is
// the unmodified input span including its newline; nl reports whether
// the line ended in one. Both slices are valid until the next readLine.
func (r *CSVBlockReader) readLine() (content, raw []byte, nl bool, err error) {
	line, rerr := r.br.ReadSlice('\n')
	if rerr == bufio.ErrBufferFull {
		r.spill = append(r.spill[:0], line...)
		for rerr == bufio.ErrBufferFull {
			line, rerr = r.br.ReadSlice('\n')
			r.spill = append(r.spill, line...)
		}
		line = r.spill
	}
	if len(line) == 0 && rerr != nil {
		return nil, nil, false, rerr
	}
	if rerr != nil && rerr != io.EOF {
		return nil, nil, false, rerr
	}
	raw = line
	if n := len(line); line[n-1] == '\n' {
		nl = true
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		// Mid-file this normalizes \r\n; at EOF it drops the stray \r
		// encoding/csv drops from a newline-less final line.
		if nl || rerr == io.EOF {
			line = line[:n-1]
		}
	}
	return line, raw, nl, nil
}

// parseRecord parses one record. Data fields land in b's columns
// through the header mapping (b == nil routes every field to scrap —
// the header parse); raw line spans append to *rawDst when non-nil. It
// returns the record's field count, or io.EOF when the input ends
// before a record starts. Blank lines are skipped, never recorded.
func (r *CSVBlockReader) parseRecord(b *Block, rawDst *[]byte) (int, error) {
	var content, raw []byte
	var nl bool
	for {
		var err error
		content, raw, nl, err = r.readLine()
		if err != nil {
			return 0, err // io.EOF at a record boundary, or a read error
		}
		if len(content) > 0 {
			break
		}
	}
	if rawDst != nil {
		*rawDst = append(*rawDst, raw...)
	}
	nf := 0
	line := content
parseField:
	for {
		var cur *Column
		if b == nil || nf >= len(r.colFor) {
			cur = &r.scrap
		} else {
			cur = &b.cols[r.colFor[nf]]
		}
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field: runs to the next comma or end of record.
			field := line
			if i := bytes.IndexByte(line, ','); i >= 0 {
				field = line[:i]
				line = line[i+1:]
			} else {
				line = nil
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return nf, r.parseErr(`bare " in non-quoted field`)
			}
			cur.appendBytes(field)
			cur.closeRow()
			nf++
			if line == nil {
				return nf, nil
			}
			continue parseField
		}
		// Quoted field.
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				// No closing quote on this line: the field spans lines
				// (the embedded line break is part of the value).
				cur.appendBytes(line)
				if !nl {
					return nf, r.parseErr(`unterminated quoted field`)
				}
				cur.appendByte('\n')
				var err error
				line, raw, nl, err = r.readLine()
				if err == io.EOF {
					return nf, r.parseErr(`unterminated quoted field`)
				}
				if err != nil {
					return nf, err
				}
				if rawDst != nil {
					*rawDst = append(*rawDst, raw...)
				}
				continue
			}
			cur.appendBytes(line[:i])
			line = line[i+1:]
			switch {
			case len(line) > 0 && line[0] == '"':
				cur.appendByte('"') // "" escape
				line = line[1:]
			case len(line) > 0 && line[0] == ',':
				line = line[1:]
				cur.closeRow()
				nf++
				continue parseField
			case len(line) == 0:
				cur.closeRow()
				nf++
				return nf, nil
			default:
				return nf, r.parseErr(`extraneous or missing " in quoted-field`)
			}
		}
	}
}
