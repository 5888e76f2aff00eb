package cluster

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// duplicateKeySuspect serializes f's corpus with repeated primary keys,
// the shape additive and mix-and-match attacks leave behind: every
// seventh row is followed by an exact copy of itself (so both copies sit
// in one 8192-row chunk), and the first 100 keys come back at the end of
// the stream carrying a neighbour's value (conflicting copies, which the
// LastWriteWins column must resolve in stream order). Returns the CSV
// and JSONL forms and the tuples themselves.
func duplicateKeySuspect(t *testing.T, f *auditFixture) (csvData, jsonlData string, tuples []relation.Tuple) {
	t.Helper()
	n := f.rel.Len()
	for i := 0; i < n; i++ {
		tuples = append(tuples, f.rel.Tuple(i))
		if i%7 == 0 {
			tuples = append(tuples, f.rel.Tuple(i))
		}
	}
	attr, _ := f.schema.Index("Item_Nbr")
	for i := 0; i < 100; i++ {
		dup := f.rel.Tuple(i)
		dup[attr] = f.rel.Tuple(i + 1)[attr]
		tuples = append(tuples, dup)
	}
	header := make([]string, f.schema.Arity())
	for i := range header {
		header[i] = f.schema.Attr(i).Name
	}
	var cb, jb strings.Builder
	cw := csv.NewWriter(&cb)
	enc := json.NewEncoder(&jb)
	if err := cw.Write(header); err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := cw.Write(tup); err != nil {
			t.Fatal(err)
		}
		obj := make(map[string]string, len(header))
		for j, name := range header {
			obj[name] = tup[j]
		}
		if err := enc.Encode(obj); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return cb.String(), jb.String(), tuples
}

// sliceRows is a RowReader over an in-memory tuple list — unlike a
// Relation, it may repeat primary keys.
type sliceRows struct {
	schema *relation.Schema
	tuples []relation.Tuple
}

func (s *sliceRows) Schema() *relation.Schema { return s.schema }

func (s *sliceRows) Read() (relation.Tuple, error) {
	if len(s.tuples) == 0 {
		return nil, io.EOF
	}
	t := s.tuples[0].Clone()
	s.tuples = s.tuples[1:]
	return t, nil
}

// TestDuplicateKeysScanIdenticallyOnEveryLayout pins "one input, one
// answer" for suspects with repeated primary keys: every streaming
// layout — an in-memory row source through the relation.Blocks adapter
// and both zero-copy block readers under several worker, chunk and block
// sizes, and the cluster at shard sizes from one row to a whole chunk —
// accepts the stream and scores each copy, with tallies identical across
// all of them.
func TestDuplicateKeysScanIdenticallyOnEveryLayout(t *testing.T) {
	f := newAuditFixture(t, 500, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	csvData, jsonlData, tuples := duplicateKeySuspect(t, f)
	rows := len(tuples)

	open := func(kind string) relation.RowReader {
		t.Helper()
		var (
			src relation.RowReader
			err error
		)
		switch kind {
		case "rows":
			src = &sliceRows{schema: f.schema, tuples: tuples}
		case "csv-blocks":
			src, err = relation.NewCSVBlockReader(strings.NewReader(csvData), f.schema)
		case "jsonl-blocks":
			src = relation.NewJSONLBlockReader(strings.NewReader(jsonlData), f.schema)
		}
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	var want []*mark.Tally
	check := func(name string, got []*mark.Tally, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want == nil {
			want = got
			for j, tl := range want {
				if tl.Rows != rows {
					t.Fatalf("%s: tally %d scanned %d rows, want every copy (%d)", name, j, tl.Rows, rows)
				}
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tallies diverged from the first layout", name)
		}
	}

	for _, kind := range []string{"rows", "csv-blocks", "jsonl-blocks"} {
		for _, cfg := range []pipeline.Config{
			{Workers: 1},
			{Workers: 2, ChunkRows: 8192},
			{Workers: 3, ChunkRows: 1, BlockRows: 1},
			{Workers: 4, ChunkRows: 64, BlockRows: 7},
			{Workers: 2, ChunkRows: 500, BlockRows: 512},
		} {
			got, err := pipeline.ScanMany(context.Background(), open(kind), prep.Scanners(), cfg)
			check(fmt.Sprintf("ScanMany %s %+v", kind, cfg), got, err)
		}
	}

	for _, shardRows := range []int{1, 100, 8192} {
		// The test workers register once and never heartbeat, so the
		// lease must outlast the whole loop: 1344 one-row shards take
		// longer than the default 6 s TTL under the race detector.
		c := NewCoordinator(Config{ShardRows: shardRows, TTL: time.Minute})
		startTestWorker(t).register(c, "w1", 4)
		startTestWorker(t).register(c, "w2", 4)
		for _, kind := range []string{"csv-blocks", "jsonl-blocks"} {
			got, err := c.ScanShards(context.Background(), open(kind), prep.Scanners(), ScanJob{
				Records: prep.Records(), Schema: f.spec,
			})
			check(fmt.Sprintf("ScanShards %s ShardRows=%d", kind, shardRows), got, err)
		}
	}
}
