package pipeline

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
)

// blockEngineRelation builds a marked relation plus its CSV form for the
// streaming paths.
func blockEngineRelation(t *testing.T, n int) (*relation.Relation, *relation.Domain, string, mark.Options, ecc.Bits) {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	values := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{"row-" + strconv.Itoa(i), values[(i*7)%len(values)]})
	}
	dom, err := relation.NewDomain(values)
	if err != nil {
		t.Fatal(err)
	}
	wm := ecc.MustParseBits("1011001110")
	opts := mark.Options{
		Attr: "cat", K1: keyhash.NewKey("pb-k1"), K2: keyhash.NewKey("pb-k2"),
		E: 5, Domain: dom,
	}
	st, err := mark.Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.BandwidthOverride = st.Bandwidth
	var csv strings.Builder
	if err := relation.WriteCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	return r, dom, csv.String(), opts, wm
}

// TestDetectBlockRowsEquivalence proves the detection paths are
// bit-identical to the sequential materialized pass (mark.Detect) across
// block sizes — including 1 and odd sizes that leave ragged tails — for
// both vote aggregations and both the chunked and streaming entry
// points.
func TestDetectBlockRowsEquivalence(t *testing.T) {
	r, _, csv, opts, wm := blockEngineRelation(t, 5000)
	for _, agg := range []mark.VoteAggregation{mark.MajorityVote, mark.LastWriteWins} {
		opts := opts
		opts.Aggregation = agg
		want, err := mark.Detect(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, blockRows := range []int{0, 1, 3, 511, 512, 4096, 1 << 20} {
			cfg := Config{Workers: 3, ChunkRows: 700, BlockRows: blockRows}
			got, err := Detect(context.Background(), r, len(wm), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			src, err := relation.NewCSVBlockReader(strings.NewReader(csv), r.Schema())
			if err != nil {
				t.Fatal(err)
			}
			stream, err := scanReport(t, src, len(wm), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("agg %v blockRows %d: Detect diverged from mark.Detect", agg, blockRows)
			}
			if !reflect.DeepEqual(stream, want) {
				t.Fatalf("agg %v blockRows %d: streaming scan diverged from mark.Detect", agg, blockRows)
			}
			if got.WM.String() != wm.String() {
				t.Fatalf("agg %v blockRows %d: lost the watermark: %s", agg, blockRows, got.WM)
			}
		}
	}
}

// TestEmbedBlockRowsEquivalence proves embedding emits identical
// relations and statistics across block sizes.
func TestEmbedBlockRowsEquivalence(t *testing.T) {
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	base := relation.New(schema)
	values := []string{"a", "b", "c", "d"}
	for i := 0; i < 4000; i++ {
		base.MustAppend(relation.Tuple{"r" + strconv.Itoa(i), values[(i*3)%len(values)]})
	}
	dom, err := relation.NewDomain(values)
	if err != nil {
		t.Fatal(err)
	}
	wm := ecc.MustParseBits("101101")
	opts := mark.Options{
		Attr: "cat", K1: keyhash.NewKey("pe-k1"), K2: keyhash.NewKey("pe-k2"),
		E: 4, Domain: dom, BandwidthOverride: 900,
	}

	var wantRel *relation.Relation
	var wantStats mark.EmbedStats
	for i, blockRows := range []int{0, 1, 7, 512, 1 << 20} {
		cfg := Config{Workers: 4, ChunkRows: 600, BlockRows: blockRows}
		r := base.Clone()
		st, err := Embed(context.Background(), r, wm, opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantRel, wantStats = r, st
			continue
		}
		if !r.Equal(wantRel) {
			t.Fatalf("blockRows %d: embedded relation diverged", blockRows)
		}
		if st != wantStats {
			t.Fatalf("blockRows %d: stats diverged: %+v vs %+v", blockRows, st, wantStats)
		}
	}
}

// TestScanManyMemoEquivalence proves the per-block digest memo changes
// nothing: a scanner fleet where several certificates share a fitness
// key (one owner, many certificates — the memo's fast path) tallies
// exactly like each scanner scanning the stream alone, and exactly like
// its memo-less materialized pass (Scanner.Scan over the relation).
func TestScanManyMemoEquivalence(t *testing.T) {
	r, dom, csv, opts, _ := blockEngineRelation(t, 6000)
	_ = dom
	mkScanner := func(k1, k2 string) *mark.Scanner {
		o := opts
		o.K1, o.K2 = keyhash.NewKey(k1), keyhash.NewKey(k2)
		sc, err := mark.NewStreamScanner(r.Schema(), 10, o)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// Owner A holds three certificates (same k1 lane), owner B two, C one.
	scanners := []*mark.Scanner{
		mkScanner("owner-a|k1", "owner-a|k2"),
		mkScanner("owner-a|k1", "owner-a|k2-bis"),
		mkScanner("owner-a|k1", "owner-a|k2-ter"),
		mkScanner("owner-b|k1", "owner-b|k2"),
		mkScanner("owner-b|k1", "owner-b|k2-bis"),
		mkScanner("owner-c|k1", "owner-c|k2"),
	}

	scan := func(scs []*mark.Scanner, cfg Config) []*mark.Tally {
		src, err := relation.NewCSVBlockReader(strings.NewReader(csv), r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		tallies, err := ScanMany(context.Background(), src, scs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tallies
	}

	together := scan(scanners, Config{Workers: 3, ChunkRows: 900})
	for i, sc := range scanners {
		alone := scan([]*mark.Scanner{sc}, Config{Workers: 1})
		if !reflect.DeepEqual(together[i], alone[0]) {
			t.Fatalf("scanner %d: memo-shared tally diverged from solo scan", i)
		}
		materialized := sc.NewTally()
		if err := sc.Scan(r, 0, r.Len(), materialized); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(together[i], materialized) {
			t.Fatalf("scanner %d: streamed tally diverged from the materialized pass", i)
		}
	}
}

// TestProgressCountsTuples proves the progress hook ticks every suspect
// tuple exactly once per pass — on the materialized, streaming and
// fan-out paths, at every block size, regardless of certificate count.
func TestProgressCountsTuples(t *testing.T) {
	r, _, csv, opts, wm := blockEngineRelation(t, 3000)
	for _, blockRows := range []int{0, 17, 512} {
		var n atomic.Int64
		cfg := Config{Workers: 3, ChunkRows: 500, BlockRows: blockRows,
			Progress: func(tuples int) { n.Add(int64(tuples)) }}

		if _, err := Detect(context.Background(), r, len(wm), opts, cfg); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != int64(r.Len()) {
			t.Fatalf("blockRows %d: Detect progress %d, want %d", blockRows, got, r.Len())
		}

		n.Store(0)
		src, err := relation.NewCSVBlockReader(strings.NewReader(csv), r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		scanners := make([]*mark.Scanner, 4)
		for i := range scanners {
			o := opts
			o.K1 = keyhash.NewKey("prog-" + strconv.Itoa(i))
			sc, err := mark.NewStreamScanner(r.Schema(), 10, o)
			if err != nil {
				t.Fatal(err)
			}
			scanners[i] = sc
		}
		if _, err := ScanMany(context.Background(), src, scanners, cfg); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != int64(r.Len()) {
			t.Fatalf("blockRows %d: ScanMany progress %d, want %d (once per tuple, not per certificate)",
				blockRows, got, r.Len())
		}
	}

	// Embedding ticks too (block engine only).
	var n atomic.Int64
	cfg := Config{Workers: 2, ChunkRows: 800,
		Progress: func(tuples int) { n.Add(int64(tuples)) }}
	clone := r.Clone()
	if _, err := Embed(context.Background(), clone, wm, opts, cfg); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != int64(r.Len()) {
		t.Fatalf("Embed progress %d, want %d", got, r.Len())
	}
}
