package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
)

// blockStreamScanners prepares N stream scanners (two sharing a fitness
// key, so the memo-lane path is exercised) against r's schema.
func blockStreamScanners(t testing.TB, r *relation.Relation, dom *relation.Domain, agg mark.VoteAggregation) []*mark.Scanner {
	t.Helper()
	keys := [][2]string{
		{"bs-own-a", "bs-a2"},
		{"bs-own-a", "bs-b2"}, // shares the k1 lane with the first
		{"bs-own-c", "bs-c2"},
	}
	scanners := make([]*mark.Scanner, len(keys))
	for i, kp := range keys {
		opts := mark.Options{
			Attr: "Item_Nbr", K1: keyhash.NewKey(kp[0]), K2: keyhash.NewKey(kp[1]),
			E: 20, Domain: dom, Aggregation: agg,
			BandwidthOverride: mark.Bandwidth(r.Len(), 20),
		}
		sc, err := mark.NewStreamScanner(r.Schema(), 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		scanners[i] = sc
	}
	return scanners
}

// TestScanManyBlockReaderEquivalence is the streaming engine's proof:
// ScanMany fed by the zero-copy CSV and JSONL block readers, and by a
// materialized relation through the relation.Blocks adapter, produces
// for every scanner a tally bit-identical to the materialized pass
// (Scanner.Scan over the relation) — for both vote aggregations and
// across worker counts, chunk sizes and block sizes (size-1 blocks,
// ragged tails, and a block larger than the whole stream included).
func TestScanManyBlockReaderEquivalence(t *testing.T) {
	r, dom := testData(t, 7000)
	var csvData, jsonlData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteJSONL(&jsonlData, r); err != nil {
		t.Fatal(err)
	}

	for _, agg := range []mark.VoteAggregation{mark.MajorityVote, mark.LastWriteWins} {
		scanners := blockStreamScanners(t, r, dom, agg)
		want := make([]*mark.Tally, len(scanners))
		for i, sc := range scanners {
			want[i] = sc.NewTally()
			if err := sc.Scan(r, 0, r.Len(), want[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, cfg := range []Config{
			{Workers: 1},
			{Workers: 4, ChunkRows: 700},
			{Workers: 3, ChunkRows: 1100, BlockRows: 1},
			{Workers: 4, ChunkRows: 999, BlockRows: 37},
			{Workers: 16, ChunkRows: 100, BlockRows: 512},
			{Workers: 2, BlockRows: 1 << 20},
		} {
			for _, format := range []string{"csv", "jsonl", "rows"} {
				var src relation.RowReader
				switch format {
				case "csv":
					br, err := relation.NewCSVBlockReader(strings.NewReader(csvData.String()), r.Schema())
					if err != nil {
						t.Fatal(err)
					}
					src = br
				case "jsonl":
					src = relation.NewJSONLBlockReader(strings.NewReader(jsonlData.String()), r.Schema())
				default:
					src = relation.Rows(r)
				}
				got, err := ScanMany(context.Background(), src, scanners, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("agg %v cfg %+v %s: streamed ScanMany diverged from materialized pass", agg, cfg, format)
				}
			}
		}
	}
}

// TestScanManyBlockReaderPropagatesReadError mirrors the row-path test:
// a corrupt stream fails the whole batch, not partial tallies.
func TestScanManyBlockReaderPropagatesReadError(t *testing.T) {
	r, dom := testData(t, 300)
	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		t.Fatal(err)
	}
	broken := csvData.String() + "not,a,valid,row,at,all\n"
	src, err := relation.NewCSVBlockReader(strings.NewReader(broken), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	scanners := blockStreamScanners(t, r, dom, mark.MajorityVote)
	if _, err := ScanMany(context.Background(), src, scanners, Config{Workers: 2, ChunkRows: 64}); err == nil {
		t.Fatal("ScanMany swallowed a block-reader read error")
	}
}

// TestScanManyBlockReaderCancelled asserts a cancelled context fails the
// pass with ctx.Err and the reader unwinds without deadlocking.
func TestScanManyBlockReaderCancelled(t *testing.T) {
	r, dom := testData(t, 5000)
	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		t.Fatal(err)
	}
	src, err := relation.NewCSVBlockReader(strings.NewReader(csvData.String()), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scanners := blockStreamScanners(t, r, dom, mark.MajorityVote)
	if _, err := ScanMany(ctx, src, scanners, Config{Workers: 2, ChunkRows: 128}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestScanManyBlocksAllocsPerRow pins the tentpole end to end: a full
// streaming ScanMany pass over the zero-copy readers — parse, hash,
// vote — stays under a few fixed allocations per PASS amortized to
// effectively zero per row. The budget covers the per-pass machinery
// (reader construction, channels, goroutines, first-lap pool fills);
// the per-row cost it bounds is what the tentpole eliminated.
func TestScanManyBlocksAllocsPerRow(t *testing.T) {
	const rows = 20000
	r, dom := testData(t, rows)
	var csvData, jsonlData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteJSONL(&jsonlData, r); err != nil {
		t.Fatal(err)
	}
	scanners := blockStreamScanners(t, r, dom, mark.MajorityVote)
	for _, tc := range []struct {
		format string
		data   string
	}{
		{"csv", csvData.String()},
		{"jsonl", jsonlData.String()},
	} {
		t.Run(tc.format, func(t *testing.T) {
			pass := func() {
				var src relation.RowReader
				if tc.format == "csv" {
					br, err := relation.NewCSVBlockReader(strings.NewReader(tc.data), r.Schema())
					if err != nil {
						t.Fatal(err)
					}
					src = br
				} else {
					src = relation.NewJSONLBlockReader(strings.NewReader(tc.data), r.Schema())
				}
				if _, err := ScanMany(context.Background(), src, scanners, Config{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			pass() // warm the block and tally pools
			allocs := testing.AllocsPerRun(5, pass)
			perRow := allocs / rows
			if perRow > 0.05 {
				t.Fatalf("streaming %s scan allocates %.0f per pass = %.3f allocs/row, want ~0", tc.format, allocs, perRow)
			}
		})
	}
}

// BenchmarkScanManyIngestion measures the end-to-end streaming scan —
// bytes in, tallies out — over the zero-copy block readers, for both
// wire formats.
func BenchmarkScanManyIngestion(b *testing.B) {
	r, dom := testData(b, 50000)
	var csvData, jsonlData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		b.Fatal(err)
	}
	if err := relation.WriteJSONL(&jsonlData, r); err != nil {
		b.Fatal(err)
	}
	scanners := blockStreamScanners(b, r, dom, mark.MajorityVote)
	mk := map[string]func(b *testing.B, data string) relation.RowReader{
		"csv/blocks": func(b *testing.B, data string) relation.RowReader {
			br, err := relation.NewCSVBlockReader(strings.NewReader(data), r.Schema())
			if err != nil {
				b.Fatal(err)
			}
			return br
		},
		"jsonl/blocks": func(b *testing.B, data string) relation.RowReader {
			return relation.NewJSONLBlockReader(strings.NewReader(data), r.Schema())
		},
	}
	for _, name := range []string{"csv/blocks", "jsonl/blocks"} {
		data := csvData.String()
		if strings.HasPrefix(name, "jsonl") {
			data = jsonlData.String()
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				src := mk[name](b, data)
				if _, err := ScanMany(context.Background(), src, scanners, Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
