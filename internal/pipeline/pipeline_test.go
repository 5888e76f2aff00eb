package pipeline

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/quality"
	"repro/internal/relation"
)

func testData(t testing.TB, n int) (*relation.Relation, *relation.Domain) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 300, ZipfS: 1.0, Seed: "pipeline-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, dom
}

func testOptions(dom *relation.Domain) mark.Options {
	return mark.Options{
		Attr:   "Item_Nbr",
		K1:     keyhash.NewKey("pipeline-k1"),
		K2:     keyhash.NewKey("pipeline-k2"),
		E:      30,
		Domain: dom,
	}
}

// TestParallelEmbedEqualsSequential is the embed half of the acceptance
// criterion: the parallel pass must rewrite exactly the tuples the
// sequential pass rewrites, to the same values, with matching stats.
func TestParallelEmbedEqualsSequential(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	seqRel, dom := testData(t, 20000)
	opts := testOptions(dom)

	parRel := seqRel.Clone()
	seqStats, err := mark.Embed(seqRel, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Workers: 2},
		{Workers: 4, ChunkRows: 333},
		{Workers: 16, ChunkRows: 100},
	} {
		work := parRel.Clone()
		parStats, err := Embed(context.Background(), work, wm, opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !seqRel.Equal(work) {
			t.Fatalf("cfg %+v: parallel embed altered different tuples", cfg)
		}
		if parStats != seqStats {
			t.Fatalf("cfg %+v: stats diverge:\nseq: %+v\npar: %+v", cfg, seqStats, parStats)
		}
	}
}

// TestParallelDetectBitIdentical is the detect half of the acceptance
// criterion: parallel detection must recover a bit-identical watermark to
// the sequential core path on the same seeded relation.
func TestParallelDetectBitIdentical(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	r, dom := testData(t, 20000)
	opts := testOptions(dom)
	if _, err := mark.Embed(r, wm, opts); err != nil {
		t.Fatal(err)
	}

	for _, agg := range []mark.VoteAggregation{mark.MajorityVote, mark.LastWriteWins} {
		opts.Aggregation = agg
		seq, err := mark.Detect(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}
		if seq.WM.String() != wm.String() {
			t.Fatalf("%v: sequential path lost the watermark: %s", agg, seq.WM)
		}
		for _, cfg := range []Config{
			{Workers: 2},
			{Workers: 4, ChunkRows: 251},
			{Workers: 16, ChunkRows: 64},
		} {
			par, err := Detect(context.Background(), r, len(wm), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if par.WM.String() != seq.WM.String() {
				t.Fatalf("%v cfg %+v: parallel detected %s, sequential %s", agg, cfg, par.WM, seq.WM)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("%v cfg %+v: reports diverge:\nseq: %+v\npar: %+v", agg, cfg, seq, par)
			}
		}
	}
}

// TestEmbedAssessorFallsBackSequential: quality budgets are
// order-dependent, so the pipeline must produce the sequential result
// even when asked for many workers.
func TestEmbedAssessorFallsBackSequential(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	seqRel, dom := testData(t, 8000)
	parRel := seqRel.Clone()
	opts := testOptions(dom)

	mk := func(r *relation.Relation) mark.Options {
		o := opts
		o.Assessor = quality.NewAssessor(quality.MaxAlterationFraction(0.005, r.Len()))
		return o
	}
	seqStats, err := mark.Embed(seqRel, wm, mk(seqRel))
	if err != nil {
		t.Fatal(err)
	}
	parStats, err := Embed(context.Background(), parRel, wm, mk(parRel), Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !seqRel.Equal(parRel) || parStats != seqStats {
		t.Fatalf("assessor path diverged from sequential:\nseq: %+v\npar: %+v", seqStats, parStats)
	}
	if parStats.SkippedQuality == 0 {
		t.Fatal("test budget never bound — assessor fallback untested")
	}
}

// TestEmbedPrimaryKeyAttrFallsBackSequential: a Section 3.3 pairwise
// embedding can override KeyAttr and watermark the schema's primary key;
// rewriting key values mutates the relation's shared key index, so the
// pipeline must run that case sequentially (concurrent workers would
// race on the index map — run with -race).
func TestEmbedPrimaryKeyAttrFallsBackSequential(t *testing.T) {
	// Fresh replacement values, so key rewrites never collide.
	fresh := make([]string, 64)
	for i := range fresh {
		fresh[i] = "R" + strconv.Itoa(i)
	}
	dom, err := relation.NewDomain(fresh)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *relation.Relation {
		r, _ := testData(t, 8000)
		return r
	}
	opts := mark.Options{
		KeyAttr: "Item_Nbr",  // non-key column acts as K...
		Attr:    "Visit_Nbr", // ...and the primary key is rewritten
		K1:      keyhash.NewKey("pk-k1"),
		K2:      keyhash.NewKey("pk-k2"),
		E:       30,
		Domain:  dom,
	}
	wm := ecc.MustParseBits("101")

	seqRel := mk()
	seqStats, seqErr := mark.Embed(seqRel, wm, opts)
	parRel := mk()
	parStats, parErr := Embed(context.Background(), parRel, wm, opts, Config{Workers: 8, ChunkRows: 100})
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("error divergence: seq %v, par %v", seqErr, parErr)
	}
	if seqErr == nil {
		if !seqRel.Equal(parRel) {
			t.Fatal("primary-key embedding diverged from sequential")
		}
		if parStats != seqStats {
			t.Fatalf("stats diverge:\nseq: %+v\npar: %+v", seqStats, parStats)
		}
	}
}

// scanReport is single-certificate streaming detection: one stream
// scanner over src through ScanMany, its tally aggregated by
// Scanner.Report.
func scanReport(t *testing.T, src relation.RowReader, wmLen int, opts mark.Options, cfg Config) (mark.DetectReport, error) {
	t.Helper()
	sc, err := mark.NewStreamScanner(src.Schema(), wmLen, opts)
	if err != nil {
		t.Fatal(err)
	}
	tallies, err := ScanMany(context.Background(), src, []*mark.Scanner{sc}, cfg)
	if err != nil {
		return mark.DetectReport{}, err
	}
	return sc.Report(tallies[0])
}

// TestDetectReaderMatchesMaterialized: detection fed from a JSONL reader
// reports exactly what mark.Detect reports over the same relation.
func TestDetectReaderMatchesMaterialized(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	r, dom := testData(t, 12000)
	opts := testOptions(dom)
	st, err := mark.Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := mark.Detect(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}

	var in strings.Builder
	if err := relation.WriteJSONL(&in, r); err != nil {
		t.Fatal(err)
	}
	sOpts := opts
	sOpts.BandwidthOverride = st.Bandwidth
	src := relation.NewJSONLBlockReader(strings.NewReader(in.String()), r.Schema())
	rep, err := scanReport(t, src, len(wm), sOpts, Config{Workers: 4, ChunkRows: 997})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WM.String() != seq.WM.String() {
		t.Fatalf("stream detected %s, sequential %s", rep.WM, seq.WM)
	}
	if !reflect.DeepEqual(rep, seq) {
		t.Fatalf("reports diverge:\nseq:    %+v\nstream: %+v", seq, rep)
	}
}

func TestStreamPropagatesReadErrors(t *testing.T) {
	_, dom := testData(t, 100)
	opts := testOptions(dom)
	opts.BandwidthOverride = 64
	schema := datagen.ItemScanSchema()

	// Truncated quoted field: the reader fails mid-stream.
	in := "Visit_Nbr,Item_Nbr\n1,10\n\"2,11\n"
	src, err := relation.NewCSVBlockReader(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scanReport(t, src, 3, opts, Config{Workers: 2, ChunkRows: 1}); err == nil {
		t.Fatal("malformed stream accepted")
	}
}

func TestPartition(t *testing.T) {
	cases := []struct {
		n, chunk int
		want     int
	}{
		{0, 100, 1},
		{1, 100, 1},
		{100, 100, 1},
		{101, 100, 2},
		{1000, 100, 10},
	}
	for _, c := range cases {
		got := partition(c.n, c.chunk)
		if len(got) != c.want {
			t.Errorf("partition(%d, %d): %d chunks, want %d", c.n, c.chunk, len(got), c.want)
		}
		covered := 0
		for i, ch := range got {
			if ch.Index != i {
				t.Errorf("partition(%d, %d): chunk %d has index %d", c.n, c.chunk, i, ch.Index)
			}
			covered += ch.Hi - ch.Lo
		}
		if covered != c.n {
			t.Errorf("partition(%d, %d): covers %d rows", c.n, c.chunk, covered)
		}
	}
}
