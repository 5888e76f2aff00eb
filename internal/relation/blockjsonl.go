package relation

import (
	"fmt"
	"io"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// JSONLBlockReader is the zero-copy JSONL ingestion path: a windowed
// scanner over the input stream that decodes one flat JSON object per
// record straight into a Block's column arenas. It is the only JSONL
// parser: ReadJSONL materializes through it. Decoding semantics are
// bit-identical to a json.Decoder into map[string]string — the fuzz
// tests drive it and that stdlib oracle (kept in rowio_test.go) over
// the same inputs and demand identical row streams: whitespace
// (including newlines) between records and tokens, duplicate keys
// resolved last-wins with the field count taken over distinct keys,
// null accepted as the empty string, every escape form (\uXXXX incl.
// surrogate pairs, with unpaired surrogates and invalid UTF-8 replaced
// by U+FFFD without error), and control characters inside strings
// rejected.
//
// JSONLBlockReader implements BlockReader, RawShardSource, and a
// RowReader compatibility view; do not interleave Read and ReadBlock
// calls on one reader.
type JSONLBlockReader struct {
	schema *Schema
	rd     io.Reader
	// buf is the sliding input window [r:w); bytes from recStart on are
	// preserved across refills so a record's raw span stays addressable.
	buf      []byte
	r, w     int
	eof      bool
	recStart int
	// rowBuf holds the decoded field bytes of the record being parsed;
	// spanLo/spanHi index into it per schema position, seen tracks the
	// distinct-key count (duplicate keys overwrite their span: last
	// write wins, exactly like a map decode).
	rowBuf []byte
	keyBuf []byte
	spanLo []int32
	spanHi []int32
	seen   []bool

	recordRaw bool
	row       int   // next data row, 1-based (error reporting)
	err       error // sticky terminal parse/read error

	// rowBlk/rowIdx back the RowReader compatibility view.
	rowBlk *Block
	rowIdx int
}

// NewJSONLBlockReader returns a reader decoding one JSON object per
// record from rd.
func NewJSONLBlockReader(rd io.Reader, schema *Schema) *JSONLBlockReader {
	arity := schema.Arity()
	return &JSONLBlockReader{
		schema: schema,
		rd:     rd,
		spanLo: make([]int32, arity),
		spanHi: make([]int32, arity),
		seen:   make([]bool, arity),
		row:    1,
	}
}

// Schema returns the reader's schema.
func (r *JSONLBlockReader) Schema() *Schema { return r.schema }

// SetRecordRaw toggles raw record-span recording into filled blocks.
func (r *JSONLBlockReader) SetRecordRaw(on bool) { r.recordRaw = on }

// RawHeader returns nil: JSONL streams have no preamble.
func (r *JSONLBlockReader) RawHeader() []byte { return nil }

// FormatName returns "jsonl".
func (r *JSONLBlockReader) FormatName() string { return "jsonl" }

// ReadBlock resets b and fills it with up to maxRows rows (<= 0 means a
// default batch). See BlockReader for the contract.
func (r *JSONLBlockReader) ReadBlock(b *Block, maxRows int) (int, error) {
	b.Reset(r.schema)
	if r.err != nil {
		return 0, r.err
	}
	if maxRows <= 0 {
		maxRows = BlockRows
	}
	var rawDst *[]byte
	if r.recordRaw {
		rawDst = &b.raw
	}
	n := 0
	for n < maxRows {
		err := r.parseRecord(b, rawDst)
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
		b.rows++
		n++
		r.row++
	}
	return n, nil
}

// Read returns the next tuple or io.EOF — the RowReader compatibility
// view. Rows parsed before a mid-block error are yielded first.
func (r *JSONLBlockReader) Read() (Tuple, error) {
	if r.rowBlk == nil {
		r.rowBlk = NewBlock(r.schema)
	}
	if r.rowIdx >= r.rowBlk.Rows() {
		n, err := r.ReadBlock(r.rowBlk, BlockRows)
		if n == 0 && err != nil {
			return nil, err
		}
		r.rowIdx = 0
	}
	t := r.rowBlk.Tuple(r.rowIdx)
	r.rowIdx++
	return t, nil
}

// rowErrf positions a terminal parse error at the current data row.
func (r *JSONLBlockReader) rowErrf(format string, args ...any) error {
	return fmt.Errorf("relation: reading JSONL row %d: %s", r.row, fmt.Sprintf(format, args...))
}

// unexpEOF converts a boundary io.EOF into a mid-record error.
func (r *JSONLBlockReader) unexpEOF(err error) error {
	if err == io.EOF {
		return r.rowErrf("unexpected end of JSON input")
	}
	return err
}

// fill reads more input into the window, sliding out everything before
// recStart (the live record) and growing the buffer when a record
// outsizes it. Returns io.EOF only when no byte was added at EOF.
func (r *JSONLBlockReader) fill() error {
	if r.eof {
		return io.EOF
	}
	if r.recStart > 0 {
		n := copy(r.buf, r.buf[r.recStart:r.w])
		r.r -= r.recStart
		r.w = n
		r.recStart = 0
	}
	if r.w == len(r.buf) {
		if len(r.buf) == 0 {
			r.buf = make([]byte, 64*1024)
		} else {
			nb := make([]byte, 2*len(r.buf))
			copy(nb, r.buf[:r.w])
			r.buf = nb
		}
	}
	for {
		n, err := r.rd.Read(r.buf[r.w:])
		r.w += n
		if err == io.EOF {
			r.eof = true
			if n == 0 {
				return io.EOF
			}
			return nil
		}
		if err != nil {
			return err
		}
		if n > 0 {
			return nil
		}
	}
}

// ensure refills until the window holds at least n unread bytes or the
// input ends (best effort — callers re-check the window size).
func (r *JSONLBlockReader) ensure(n int) error {
	for r.w-r.r < n {
		if err := r.fill(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// peekByte returns the next byte without consuming it; io.EOF when the
// input is exhausted.
func (r *JSONLBlockReader) peekByte() (byte, error) {
	for r.r == r.w {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	return r.buf[r.r], nil
}

// nextByte consumes and returns the next byte.
func (r *JSONLBlockReader) nextByte() (byte, error) {
	c, err := r.peekByte()
	if err == nil {
		r.r++
	}
	return c, err
}

// skipSpace consumes JSON whitespace; io.EOF when the input ends.
func (r *JSONLBlockReader) skipSpace() error {
	for {
		c, err := r.peekByte()
		if err != nil {
			return err
		}
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return nil
		}
		r.r++
	}
}

// parseRecord decodes the next object into b's columns; raw span (the
// object's exact bytes plus a normalizing newline) appends to *rawDst
// when non-nil. Returns io.EOF when the input ends at a record
// boundary.
func (r *JSONLBlockReader) parseRecord(b *Block, rawDst *[]byte) error {
	r.recStart = r.r
	if err := r.skipSpace(); err != nil {
		return err // io.EOF: clean end of input
	}
	r.recStart = r.r
	c, _ := r.nextByte()
	if c != '{' {
		return r.rowErrf("invalid character %q looking for beginning of object", c)
	}
	r.rowBuf = r.rowBuf[:0]
	for i := range r.seen {
		r.seen[i] = false
	}
	distinct := 0
	if err := r.skipSpace(); err != nil {
		return r.unexpEOF(err)
	}
	if c, _ = r.peekByte(); c == '}' {
		r.r++
	} else {
		for {
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			c, err := r.nextByte()
			if err != nil {
				return r.unexpEOF(err)
			}
			if c != '"' {
				return r.rowErrf("invalid character %q looking for object key", c)
			}
			r.keyBuf, err = r.appendUnquoted(r.keyBuf[:0])
			if err != nil {
				return err
			}
			// Direct map index so the string(...) conversion stays on
			// the stack — the method-call form would allocate per key.
			pos, ok := r.schema.byName[string(r.keyBuf)]
			if !ok {
				return r.rowErrf("unknown column %q", r.keyBuf)
			}
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			if c, err = r.nextByte(); err != nil {
				return r.unexpEOF(err)
			} else if c != ':' {
				return r.rowErrf("invalid character %q after object key", c)
			}
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			lo := int32(len(r.rowBuf))
			c, err = r.nextByte()
			if err != nil {
				return r.unexpEOF(err)
			}
			switch c {
			case '"':
				r.rowBuf, err = r.appendUnquoted(r.rowBuf)
				if err != nil {
					return err
				}
			case 'n':
				// null decodes into map[string]string as the empty
				// string without error; values must match that.
				for _, want := range [3]byte{'u', 'l', 'l'} {
					if c, err = r.nextByte(); err != nil {
						return r.unexpEOF(err)
					} else if c != want {
						return r.rowErrf("invalid literal")
					}
				}
			default:
				return r.rowErrf("invalid character %q looking for string value", c)
			}
			hi := int32(len(r.rowBuf))
			if !r.seen[pos] {
				r.seen[pos] = true
				distinct++
			}
			r.spanLo[pos], r.spanHi[pos] = lo, hi
			if err := r.skipSpace(); err != nil {
				return r.unexpEOF(err)
			}
			c, err = r.nextByte()
			if err != nil {
				return r.unexpEOF(err)
			}
			if c == '}' {
				break
			}
			if c != ',' {
				return r.rowErrf("invalid character %q after object value", c)
			}
		}
	}
	if distinct != r.schema.Arity() {
		return r.rowErrf("object has %d fields, schema has %d", distinct, r.schema.Arity())
	}
	if b != nil {
		for pos := range b.cols {
			col := &b.cols[pos]
			col.appendBytes(r.rowBuf[r.spanLo[pos]:r.spanHi[pos]])
			col.closeRow()
		}
	}
	if rawDst != nil {
		*rawDst = append(*rawDst, r.buf[r.recStart:r.r]...)
		*rawDst = append(*rawDst, '\n')
	}
	r.recStart = r.r
	return nil
}

// appendUnquoted decodes a JSON string body (opening quote already
// consumed) into dst, consuming through the closing quote. Semantics
// match encoding/json's unquote: \uXXXX escapes with surrogate
// pairing, unpaired surrogates and invalid UTF-8 become U+FFFD without
// error, control characters are rejected.
func (r *JSONLBlockReader) appendUnquoted(dst []byte) ([]byte, error) {
	for {
		c, err := r.peekByte()
		if err != nil {
			return dst, r.unexpEOF(err)
		}
		switch {
		case c == '"':
			r.r++
			return dst, nil
		case c == '\\':
			r.r++
			e, err := r.nextByte()
			if err != nil {
				return dst, r.unexpEOF(err)
			}
			switch e {
			case '"':
				dst = append(dst, '"')
			case '\\':
				dst = append(dst, '\\')
			case '/':
				dst = append(dst, '/')
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr, err := r.readU4()
				if err != nil {
					return dst, err
				}
				if utf16.IsSurrogate(rr) {
					if rr2 := r.peekU4Escape(); rr2 >= 0 {
						if dec := utf16.DecodeRune(rr, rr2); dec != unicode.ReplacementChar {
							r.r += 6
							dst = utf8.AppendRune(dst, dec)
							continue
						}
					}
					// Unpaired surrogate: U+FFFD, no error, and the
					// following bytes are re-processed as-is.
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
			default:
				return dst, r.rowErrf("invalid character %q in string escape code", e)
			}
		case c < 0x20:
			return dst, r.rowErrf("invalid character %#U in string literal", rune(c))
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r.r++
		default:
			// Multi-byte rune: invalid UTF-8 becomes U+FFFD (size 1),
			// exactly like encoding/json.
			if err := r.ensure(utf8.UTFMax); err != nil {
				return dst, err
			}
			ch, size := utf8.DecodeRune(r.buf[r.r:r.w])
			r.r += size
			dst = utf8.AppendRune(dst, ch)
		}
	}
}

// readU4 consumes four hex digits of a \u escape.
func (r *JSONLBlockReader) readU4() (rune, error) {
	var v rune
	for i := 0; i < 4; i++ {
		c, err := r.nextByte()
		if err != nil {
			return 0, r.unexpEOF(err)
		}
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 + rune(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 + rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 + rune(c-'A'+10)
		default:
			return 0, r.rowErrf("invalid character %q in \\u hexadecimal escape", c)
		}
	}
	return v, nil
}

// peekU4Escape decodes a \uXXXX escape at the cursor without consuming
// it, or -1 if the next six bytes are not one.
func (r *JSONLBlockReader) peekU4Escape() rune {
	if err := r.ensure(6); err != nil || r.w-r.r < 6 {
		return -1
	}
	if r.buf[r.r] != '\\' || r.buf[r.r+1] != 'u' {
		return -1
	}
	var v rune
	for _, c := range r.buf[r.r+2 : r.r+6] {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 + rune(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 + rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 + rune(c-'A'+10)
		default:
			return -1
		}
	}
	return v
}
