package relation

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSON-lines codec: one JSON object per line keyed by attribute name.
// Complements the CSV codec for pipelines whose tooling speaks JSONL
// (e.g. log processors and data-mining feeds, the paper's motivating
// consumers). Round trips are lossless for any string values.

// WriteJSONL writes the relation as JSON lines.
func WriteJSONL(w io.Writer, r *Relation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	arity := r.Schema().Arity()
	names := make([]string, arity)
	for i := range names {
		names[i] = r.Schema().Attr(i).Name
	}
	for i := 0; i < r.Len(); i++ {
		obj := make(map[string]string, arity)
		t := r.Tuple(i)
		for j, name := range names {
			obj[name] = t[j]
		}
		if err := enc.Encode(obj); err != nil {
			return fmt.Errorf("relation: writing JSONL row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a relation under the given schema from JSON lines.
// Every object must supply exactly the schema's attributes; extra or
// missing keys are errors, as silent column loss would corrupt watermark
// detection. It is ReadAll over JSONLBlockReader, so materialized and
// streamed input parse identically.
func ReadJSONL(rd io.Reader, schema *Schema) (*Relation, error) {
	return ReadAll(NewJSONLBlockReader(rd, schema))
}
