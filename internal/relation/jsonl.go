package relation

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// JSON-lines codec: one JSON object per line keyed by attribute name.
// Complements the CSV codec for pipelines whose tooling speaks JSONL
// (e.g. log processors and data-mining feeds, the paper's motivating
// consumers). Round trips are lossless for any string values.

// WriteJSONL writes the relation as JSON lines: one object per row,
// keys in sorted order, byte-identical to json.Encoder encoding a
// map[string]string (HTML-escaping included). Values come straight from
// the stored blocks' bytes; only a value that needs escaping is
// converted to a string on the way out.
func WriteJSONL(w io.Writer, r *Relation) error {
	bw := bufio.NewWriter(w)
	order := make([]int, r.Schema().Arity()) // columns in key order
	for i := range order {
		order[i] = i
	}
	name := func(i int) string { return r.Schema().Attr(order[i]).Name }
	sort.Slice(order, func(a, b int) bool { return name(a) < name(b) })
	prefix := make([][]byte, len(order)) // `{"key":` or `,"key":`
	for i := range order {
		k, _ := json.Marshal(name(i)) // a string always marshals
		prefix[i] = append(append([]byte{','}, k...), ':')
	}
	prefix[0][0] = '{'
	var line []byte
	row := 0
	for _, b := range r.blocks {
		for j := 0; j < b.Rows(); j++ {
			line = line[:0]
			for i, c := range order {
				line = appendJSONString(append(line, prefix[i]...), b.cols[c], j)
			}
			if _, err := bw.Write(append(line, '}', '\n')); err != nil {
				return fmt.Errorf("relation: writing JSONL row %d: %w", row, err)
			}
			row++
		}
	}
	return bw.Flush()
}

// appendJSONString appends row j of col as a JSON string. Printable
// ASCII other than the characters encoding/json escapes is copied as
// it is; any other value goes through json.Marshal.
func appendJSONString(dst []byte, col Column, j int) []byte {
	v := col.Value(j)
	for _, c := range v {
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(col.String(j)) // a string always marshals
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, v...)
	return append(dst, '"')
}

// ReadJSONL reads a relation under the given schema from JSON lines.
// Every object must supply exactly the schema's attributes; extra or
// missing keys are errors, as silent column loss would corrupt watermark
// detection. It is ReadAll over JSONLBlockReader, so materialized and
// streamed input parse identically.
func ReadJSONL(rd io.Reader, schema *Schema) (*Relation, error) {
	return ReadAll(NewJSONLBlockReader(rd, schema))
}
