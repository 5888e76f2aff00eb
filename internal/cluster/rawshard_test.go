package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// rawFixtureData serializes the fixture corpus in both wire formats.
func rawFixtureData(t testing.TB, f *auditFixture) (csvData, jsonlData string) {
	t.Helper()
	var cb, jb strings.Builder
	if err := relation.WriteCSV(&cb, f.rel); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteJSONL(&jb, f.rel); err != nil {
		t.Fatal(err)
	}
	return cb.String(), jb.String()
}

// rawSource opens a zero-copy block reader over serialized fixture data.
func rawSource(t testing.TB, f *auditFixture, format, data string) relation.RowReader {
	t.Helper()
	if format == "jsonl" {
		return relation.NewJSONLBlockReader(strings.NewReader(data), f.schema)
	}
	br, err := relation.NewCSVBlockReader(strings.NewReader(data), f.schema)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// TestScanShardsRawSourceMatchesLocalScan is the byte-range encoder's
// equivalence and verbatim-slicing proof, per format: a distributed scan
// fed by a zero-copy block reader (a) produces tallies bit-identical to
// the local pass, (b) stamps every shard request with the source's own
// format, and (c) ships payloads that are verbatim slices of the input
// stream — reassembling the shards reproduces the input byte for byte,
// no parse-then-reprint anywhere.
func TestScanShardsRawSourceMatchesLocalScan(t *testing.T) {
	f := newAuditFixture(t, 4000, 3)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)
	csvData, jsonlData := rawFixtureData(t, f)

	for _, tc := range []struct {
		format, data, header string
	}{
		{"csv", csvData, csvData[:strings.IndexByte(csvData, '\n')+1]},
		{"jsonl", jsonlData, ""},
	} {
		t.Run(tc.format, func(t *testing.T) {
			c := NewCoordinator(Config{ShardRows: 256})
			var mu sync.Mutex
			payloads := map[int]string{}
			formats := map[string]bool{}
			record := func(req api.ShardScanRequest) {
				mu.Lock()
				payloads[req.Shard] = req.Data
				formats[req.Format] = true
				mu.Unlock()
			}
			for i := 0; i < 2; i++ {
				w := startTestWorker(t)
				w.delay = record
				w.register(c, fmt.Sprintf("w%d", i), 2)
			}

			got, err := c.ScanShards(context.Background(), rawSource(t, f, tc.format, tc.data), prep.Scanners(), ScanJob{
				Records: prep.Records(), Schema: f.spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s raw-source cluster tallies diverged from local scan", tc.format)
			}
			assertReportsEqualBothAggregations(t, f, got, want)

			mu.Lock()
			defer mu.Unlock()
			if len(formats) != 1 || !formats[tc.format] {
				t.Fatalf("shard requests carried formats %v, want only %q", formats, tc.format)
			}
			var rejoined strings.Builder
			rejoined.WriteString(tc.header)
			for idx := 0; idx < len(payloads); idx++ {
				body, ok := strings.CutPrefix(payloads[idx], tc.header)
				if !ok {
					t.Fatalf("shard %d payload does not start with the source header", idx)
				}
				rejoined.WriteString(body)
			}
			if rejoined.String() != tc.data {
				t.Fatalf("%s shard payloads are not verbatim slices of the input", tc.format)
			}
		})
	}
}

// TestScanShardsRawSourceRetry drives whole-shard retries on a JSONL
// source: a worker that fails every shard forces each one it receives to
// be retried on the healthy worker, with the same verbatim payload
// bytes, and the merged tallies must match the local scan.
func TestScanShardsRawSourceRetry(t *testing.T) {
	f := newAuditFixture(t, 3000, 2)
	prep := core.PrepareBatch(f.records, f.schema, core.BatchOptions{})
	want := f.localTallies(t, prep)
	_, jsonlData := rawFixtureData(t, f)

	c := NewCoordinator(Config{ShardRows: 500})
	var mu sync.Mutex
	failed := map[int]string{}
	served := map[int][]string{}

	bad := startTestWorker(t)
	bad.failWith = func(req api.ShardScanRequest) error {
		mu.Lock()
		failed[req.Shard] = req.Data
		mu.Unlock()
		return errors.New("synthetic shard failure")
	}
	bad.register(c, "bad", 1)
	good := startTestWorker(t)
	good.delay = func(req api.ShardScanRequest) {
		mu.Lock()
		served[req.Shard] = append(served[req.Shard], req.Data)
		mu.Unlock()
	}
	good.register(c, "good", 1)

	got, err := c.ScanShards(context.Background(), rawSource(t, f, "jsonl", jsonlData), prep.Scanners(), ScanJob{
		Records: prep.Records(), Schema: f.spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("retried raw-source cluster tallies diverged from local scan")
	}
	assertReportsEqualBothAggregations(t, f, got, want)

	mu.Lock()
	defer mu.Unlock()
	if len(failed) == 0 {
		t.Fatal("the failing worker never received a shard; the test proved nothing")
	}
	for idx, data := range failed {
		if len(served[idx]) != 1 || served[idx][0] != data {
			t.Fatalf("shard %d was retried as %d requests, want the failed payload once, verbatim",
				idx, len(served[idx]))
		}
	}
}

// BenchmarkShardEncode measures the coordinator's shard-payload encoder
// — the zero-copy raw byte-range slicer of readShards — per wire format.
func BenchmarkShardEncode(b *testing.B) {
	r, _, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: 50000, CatalogSize: 120, ZipfS: 1.0, Seed: "shard-encode-bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	schema := r.Schema()
	var cb, jb strings.Builder
	if err := relation.WriteCSV(&cb, r); err != nil {
		b.Fatal(err)
	}
	if err := relation.WriteJSONL(&jb, r); err != nil {
		b.Fatal(err)
	}
	csvData, jsonlData := cb.String(), jb.String()
	const shardRows = 4096

	raw := func(b *testing.B, data, format string) {
		var src relation.RawShardSource
		if format == "csv" {
			br, err := relation.NewCSVBlockReader(strings.NewReader(data), schema)
			if err != nil {
				b.Fatal(err)
			}
			src = br
		} else {
			src = relation.NewJSONLBlockReader(strings.NewReader(data), schema)
		}
		src.SetRecordRaw(true)
		hdr := src.RawHeader()
		blk := relation.GetBlock(schema)
		defer relation.PutBlock(blk)
		var out strings.Builder
		out.Write(hdr)
		rows := 0
		for {
			n, err := src.ReadBlock(blk, min(shardRows-rows, rawReadRows))
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			out.Write(blk.RawBytes())
			if rows += n; rows >= shardRows {
				out.Reset()
				out.Write(hdr)
				rows = 0
			}
		}
	}

	for _, tc := range []struct {
		name, data string
		run        func(b *testing.B, data, format string)
	}{
		{"csv/raw", csvData, raw},
		{"jsonl/raw", jsonlData, raw},
	} {
		format := strings.SplitN(tc.name, "/", 2)[0]
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.data)))
			for i := 0; i < b.N; i++ {
				tc.run(b, tc.data, format)
			}
			b.ReportMetric(float64(r.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
