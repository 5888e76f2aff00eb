package mark

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/quality"
	"repro/internal/relation"
)

// blockTestRelation builds a relation with a mix of in-domain, unknown
// and repeated categorical values so every ScanColumns branch (vote,
// unknown value, unfit) is exercised. A third column, tag, holds a
// second unique value per row: the key of pairwise embeddings whose
// watermarked attribute is the primary key id.
func blockTestRelation(t testing.TB, n int, seed int64) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
		{Name: "tag", Type: relation.TypeString},
	}, "id")
	r := relation.New(schema)
	rng := rand.New(rand.NewSource(seed))
	values := []string{"a", "b", "c", "d", "e", "f", "zz-unknown"}
	for i := 0; i < n; i++ {
		id := strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(rng.Intn(1<<30)) + "-" + strconv.Itoa(i)
		r.MustAppend(relation.Tuple{id, values[rng.Intn(len(values))], "t" + strconv.Itoa(i)})
	}
	return r
}

// blockTestDomain is the scan-side catalog; "zz-unknown" stays outside
// it so some fit tuples cast no vote.
func blockTestDomain(t testing.TB) *relation.Domain {
	t.Helper()
	dom, err := relation.NewDomain([]string{"a", "b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// randomPartition splits [0, n) into contiguous ranges of random sizes,
// always including some size-1 blocks and a ragged tail.
func randomPartition(rng *rand.Rand, n int) [][2]int {
	var parts [][2]int
	lo := 0
	for lo < n {
		var size int
		switch rng.Intn(4) {
		case 0:
			size = 1
		case 1:
			size = 1 + rng.Intn(7)
		default:
			size = 1 + rng.Intn(200)
		}
		hi := min(lo+size, n)
		parts = append(parts, [2]int{lo, hi})
		lo = hi
	}
	return parts
}

// storedPartition is randomPartition cut again at every stored-block
// boundary, so each range lies inside one block — the ranges
// EmbedColumns accepts.
func storedPartition(rng *rand.Rand, n int) [][2]int {
	var parts [][2]int
	for _, p := range randomPartition(rng, n) {
		for lo := p[0]; lo < p[1]; {
			hi := min(lo-lo%relation.BlockRows+relation.BlockRows, p[1])
			parts = append(parts, [2]int{lo, hi})
			lo = hi
		}
	}
	return parts
}

// scanTupleLoop is the oracle tally: every row of r through ScanTuple.
func scanTupleLoop(sc *Scanner, r *relation.Relation) *Tally {
	want := sc.NewTally()
	for j := 0; j < r.Len(); j++ {
		sc.ScanTuple(r.Tuple(j), want)
	}
	return want
}

// TestScanBlockMatchesScanTuple is the block-engine equivalence
// property: for random relations (one partial block, several full ones,
// ragged last blocks), ScanColumns over the relation's stored blocks
// accumulates exactly the tally — and therefore exactly the report,
// under both vote aggregations — that the ScanTuple loop produces.
func TestScanBlockMatchesScanTuple(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 1 + rng.Intn(3000)
		r := blockTestRelation(t, n, int64(trial))
		for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
			opts := Options{
				Attr: "cat", K1: keyhash.NewKey("bk-k1"), K2: keyhash.NewKey("bk-k2"),
				E: 3, Aggregation: agg, Domain: blockTestDomain(t),
				BandwidthOverride: 40,
			}
			sc, err := NewScanner(r, 10, opts)
			if err != nil {
				t.Fatal(err)
			}

			want := scanTupleLoop(sc, r)
			got := sc.NewTally()
			var bs BlockScratch
			scanStored(t, sc, r, got, &bs)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d agg %v: stored-block tally diverged from ScanTuple loop", trial, agg)
			}

			wantRep, err1 := sc.Report(want)
			gotRep, err2 := sc.Report(got)
			if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(wantRep, gotRep) {
				t.Fatalf("trial %d agg %v: report diverged", trial, agg)
			}
		}
	}
}

// TestScanBlockSizeOneIsScanTuple pins the degenerate block: ScanColumns
// over a one-row block is exactly one ScanTuple (reference) call.
func TestScanBlockSizeOneIsScanTuple(t *testing.T) {
	r := blockTestRelation(t, 200, 7)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("bk1-k1"), K2: keyhash.NewKey("bk1-k2"),
		E: 2, Domain: blockTestDomain(t), BandwidthOverride: 16,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, got := sc.NewTally(), sc.NewTally()
	var bs BlockScratch
	blk := relation.GetBlock(r.Schema())
	defer relation.PutBlock(blk)
	for j := 0; j < r.Len(); j++ {
		sc.ScanTuple(r.Tuple(j), want)
		fillBlock(blk, r, j, j+1)
		if err := sc.ScanColumns(blk, got, &bs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("row %d: size-1 ScanColumns diverged from ScanTuple", j)
		}
	}
}

// TestScanBlockSharedScratchAcrossScanners proves scratch sharing is
// sound over stored blocks: many scanners — some sharing a fitness key
// (same memo lane), some not — sweeping each stored block through ONE
// scratch produce the same tallies as each one's ScanTuple loop.
func TestScanBlockSharedScratchAcrossScanners(t *testing.T) {
	r := blockTestRelation(t, 1500, 11)
	dom := blockTestDomain(t)
	newOpts := func(k1, k2 string) Options {
		return Options{
			Attr: "cat", K1: keyhash.NewKey(k1), K2: keyhash.NewKey(k2),
			E: 3, Domain: dom, BandwidthOverride: 32,
		}
	}
	optsList := []Options{
		newOpts("owner-a", "owner-a2"),
		newOpts("owner-a", "other-k2"), // shares the k1 memo lane with the first
		newOpts("owner-b", "owner-b2"),
	}
	scanners := make([]*Scanner, len(optsList))
	for i, o := range optsList {
		sc, err := NewScanner(r, 8, o)
		if err != nil {
			t.Fatal(err)
		}
		scanners[i] = sc
	}

	// Together, one scratch, certificate-inner-loop-per-block.
	got := make([]*Tally, len(scanners))
	for i, sc := range scanners {
		got[i] = sc.NewTally()
	}
	var bs BlockScratch
	for b := 0; b < r.NumBlocks(); b++ {
		for i, sc := range scanners {
			if err := sc.ScanColumns(r.Block(b), got[i], &bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, sc := range scanners {
		if !reflect.DeepEqual(scanTupleLoop(sc, r), got[i]) {
			t.Fatalf("scanner %d: shared-scratch tally diverged from ScanTuple loop", i)
		}
	}
}

// embedCase is one embedding configuration the EmbedColumns/EmbedTuple
// equivalence runs: the plain two-hash batch, the ledger-gated walk,
// quality gating, and a pairwise mark whose attribute is the primary key.
type embedCase struct {
	name string
	opts func() Options // fresh options (hooks carry per-run state)
}

// embedCases returns the configurations for an n-row relation. The
// primary-key case rewrites ids to a catalog twenty times the relation's
// size, so some runs finish and some hit a duplicate key — both paths
// must then fail at the same row.
func embedCases(t testing.TB, n int) []embedCase {
	dom := blockTestDomain(t)
	var idDom *relation.Domain // built on first use
	base := func() Options {
		return Options{
			Attr: "cat", K1: keyhash.NewKey("eb-k1"), K2: keyhash.NewKey("eb-k2"),
			E: 3, Domain: dom, BandwidthOverride: 30,
		}
	}
	return []embedCase{
		{"plain", base},
		{"ledger", func() Options {
			o := base()
			o.SkipRow = func(row int) bool { return row%7 == 3 }
			return o
		}},
		{"assessor", func() Options {
			o := base()
			o.Assessor = quality.NewAssessor(quality.MaxAlterations(n / 20))
			return o
		}},
		{"attr-is-primary-key", func() Options {
			if idDom == nil {
				ids := make([]string, 20*n)
				for i := range ids {
					ids[i] = "pk-" + strconv.Itoa(i)
				}
				idDom = relation.MustDomain(ids)
			}
			o := base()
			o.KeyAttr, o.Attr, o.Domain, o.E = "tag", "id", idDom, 9
			return o
		}},
	}
}

// embedOracle embeds every row of a clone of base through EmbedTuple.
func embedOracle(t testing.TB, base *relation.Relation, wm ecc.Bits, opts Options) (*relation.Relation, ChunkStats, error) {
	t.Helper()
	r := base.Clone()
	em, err := NewEmbedder(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cs ChunkStats
	for j := 0; j < r.Len(); j++ {
		if err := em.EmbedTuple(r, j, &cs); err != nil {
			return r, cs, err
		}
	}
	return r, cs, nil
}

// embedColumns embeds a clone of base through EmbedColumns over the
// given in-block ranges (nil = the stored blocks whole), one scratch.
func embedColumns(t testing.TB, base *relation.Relation, wm ecc.Bits, opts Options, parts [][2]int) (*relation.Relation, ChunkStats, error) {
	t.Helper()
	r := base.Clone()
	em, err := NewEmbedder(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if parts == nil {
		for lo := 0; lo < r.Len(); lo += relation.BlockRows {
			parts = append(parts, [2]int{lo, min(lo+relation.BlockRows, r.Len())})
		}
	}
	var cs ChunkStats
	var bs BlockScratch
	for _, p := range parts {
		if err := em.EmbedColumns(r, p[0], p[1], &cs, &bs); err != nil {
			return r, cs, err
		}
	}
	return r, cs, nil
}

// sameEmbed fails unless two embedding runs left the same relation and
// error, and — when they succeeded — the same statistics (a failed pass
// reports partial counts callers discard: EmbedColumns counts a block's
// rows before rewriting them).
func sameEmbed(t *testing.T, what string, wantR, gotR *relation.Relation, want, got ChunkStats, wantErr, gotErr error) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if !wantR.Equal(gotR) {
		t.Fatalf("%s: altered different tuples than the EmbedTuple loop", what)
	}
	if wantErr == nil && !reflect.DeepEqual(MergeChunks(want), MergeChunks(got)) {
		t.Fatalf("%s: stats diverged:\n EmbedTuple %+v\n columns    %+v", what, MergeChunks(want), MergeChunks(got))
	}
}

// TestEmbedBlockMatchesSizeOne is the embedding-side property: EmbedColumns
// over the stored blocks, and over random in-block ranges (size 1
// included), yields the same relation bytes, the same merged statistics
// and the same error as the EmbedTuple loop, for random relation sizes
// (ragged last blocks) under plain, ledger-gated, quality-gated and
// attr-is-primary-key embeddings.
func TestEmbedBlockMatchesSizeOne(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		n := 50 + rng.Intn(2500)
		base := blockTestRelation(t, n, int64(40+trial))
		for _, c := range embedCases(t, n) {
			wantR, want, wantErr := embedOracle(t, base, wm, c.opts())
			gotR, got, gotErr := embedColumns(t, base, wm, c.opts(), nil)
			sameEmbed(t, fmt.Sprintf("trial %d %s stored blocks", trial, c.name), wantR, gotR, want, got, wantErr, gotErr)
			gotR, got, gotErr = embedColumns(t, base, wm, c.opts(), storedPartition(rng, n))
			sameEmbed(t, fmt.Sprintf("trial %d %s in-block ranges", trial, c.name), wantR, gotR, want, got, wantErr, gotErr)
		}
	}
}

// TestEmbedBlockOrderDependentLedger pins the hook-interleaving
// contract: a SkipRow that reads state OnAlter writes (here, an
// alteration budget that closes mid-pass) must observe exactly the
// sequential interleaving — SkipRow(j) after every earlier row's
// OnAlter — however the rows are blocked, and OnAlter must fire in row
// order.
func TestEmbedBlockOrderDependentLedger(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	base := blockTestRelation(t, 2000, 21)
	var order []int
	newOpts := func() Options {
		altered := 0
		order = order[:0]
		return Options{
			Attr: "cat", K1: keyhash.NewKey("ol-k1"), K2: keyhash.NewKey("ol-k2"),
			E: 3, Domain: blockTestDomain(t), BandwidthOverride: 30,
			SkipRow: func(int) bool { return altered >= 25 }, // budget ledger
			OnAlter: func(row int) { altered++; order = append(order, row) },
		}
	}

	wantRel, wantStats, err := embedOracle(t, base, wm, newOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := append([]int(nil), order...)
	if wantStats.SkippedLedger == 0 || wantStats.Altered != 25 {
		t.Fatalf("ledger never closed — test is vacuous: %+v", wantStats)
	}
	for seed := int64(-1); seed < 4; seed++ {
		var parts [][2]int // seed -1: the stored blocks whole
		if seed >= 0 {
			parts = storedPartition(rand.New(rand.NewSource(seed)), base.Len())
		}
		gotRel, gotStats, gotErr := embedColumns(t, base, wm, newOpts(), parts)
		sameEmbed(t, fmt.Sprintf("seed %d", seed), wantRel, gotRel, wantStats, gotStats, nil, gotErr)
		if !reflect.DeepEqual(order, wantOrder) {
			t.Fatalf("seed %d: OnAlter order %v, want %v", seed, order, wantOrder)
		}
	}
}

// TestEmbedColumnsRejectsRangeAcrossBlocks pins the one-block contract.
func TestEmbedColumnsRejectsRangeAcrossBlocks(t *testing.T) {
	r := blockTestRelation(t, 2*relation.BlockRows, 5)
	em, err := NewEmbedder(r, ecc.MustParseBits("101"), Options{
		Attr: "cat", K1: keyhash.NewKey("rx-k1"), K2: keyhash.NewKey("rx-k2"),
		E: 3, Domain: blockTestDomain(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	var cs ChunkStats
	for _, b := range [][2]int{{relation.BlockRows - 1, relation.BlockRows + 1}, {-1, 3}, {5, 4}, {0, r.Len() + 1}} {
		if err := em.EmbedColumns(r, b[0], b[1], &cs, nil); err == nil {
			t.Fatalf("range [%d,%d): expected error", b[0], b[1])
		}
	}
}

// FuzzScanColumnsEquivalence lets the fuzzer pick the relation size,
// seed, fitness parameter and block partition seed, and re-checks
// ScanColumns against the ScanTuple loop twice: over the relation's
// stored blocks, and over pooled blocks refilled with a random
// partition of the rows.
func FuzzScanColumnsEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(3), int64(2))
	f.Add(int64(9), uint16(1), uint8(1), int64(4))
	f.Add(int64(17), uint16(1024), uint8(60), int64(8))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, e uint8, partSeed int64) {
		if n == 0 || e == 0 {
			t.Skip()
		}
		r := blockTestRelation(t, int(n), seed)
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("fz-k1"), K2: keyhash.NewKey("fz-k2"),
			E: uint64(e), Domain: blockTestDomain(t), BandwidthOverride: 24,
		}
		sc, err := NewScanner(r, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := scanTupleLoop(sc, r)
		stored, pooled := sc.NewTally(), sc.NewTally()
		var bs, ps BlockScratch
		scanStored(t, sc, r, stored, &bs)
		blk := relation.GetBlock(r.Schema())
		defer relation.PutBlock(blk)
		for _, p := range randomPartition(rand.New(rand.NewSource(partSeed)), r.Len()) {
			fillBlock(blk, r, p[0], p[1])
			if err := sc.ScanColumns(blk, pooled, &ps); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(want, stored) {
			t.Fatalf("n=%d e=%d: ScanColumns over stored blocks diverged from ScanTuple loop", n, e)
		}
		if !reflect.DeepEqual(want, pooled) {
			t.Fatalf("n=%d e=%d: ScanColumns over pooled blocks diverged from ScanTuple loop", n, e)
		}
	})
}

// FuzzEmbedColumnsEquivalence lets the fuzzer pick the relation size
// (up to 3000 rows, several stored blocks), seed, fitness parameter,
// configuration and in-block partition, and re-checks EmbedColumns
// against the EmbedTuple loop.
func FuzzEmbedColumnsEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(3), uint8(0), int64(2))
	f.Add(int64(9), uint16(1), uint8(1), uint8(1), int64(4))
	f.Add(int64(17), uint16(1100), uint8(7), uint8(2), int64(8))
	f.Add(int64(23), uint16(700), uint8(4), uint8(3), int64(16))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, e uint8, mode uint8, partSeed int64) {
		if e == 0 {
			t.Skip()
		}
		n := 1 + int(rows)%3000
		base := blockTestRelation(t, n, seed)
		cases := embedCases(t, n)
		c := cases[int(mode)%len(cases)]
		opts := func() Options {
			o := c.opts()
			o.E = uint64(e)
			o.BandwidthOverride = 24
			return o
		}
		wm := ecc.MustParseBits("1011")
		wantR, want, wantErr := embedOracle(t, base, wm, opts())
		gotR, got, gotErr := embedColumns(t, base, wm, opts(), storedPartition(rand.New(rand.NewSource(partSeed)), n))
		sameEmbed(t, fmt.Sprintf("n=%d e=%d %s", n, e, c.name), wantR, gotR, want, got, wantErr, gotErr)
	})
}

// BenchmarkScanColumns measures ScanColumns over a relation's stored
// blocks and over pooled blocks of other sizes — the microbenchmark
// behind the block engine's headline (the CI bench job tracks it).
func BenchmarkScanColumns(b *testing.B) {
	r := blockTestRelation(b, 100000, 1)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("bench-k1"), K2: keyhash.NewKey("bench-k2"),
		E: 65, Domain: blockTestDomain(b), BandwidthOverride: 1500,
	}
	sc, err := NewScanner(r, 10, opts)
	if err != nil {
		b.Fatal(err)
	}
	n := r.Len()
	b.Run("stored", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scanStored(b, sc, r, sc.NewTally(), &BlockScratch{})
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	})
	// The streaming path: the same rows pre-packed into blocks of other
	// sizes — the ingestion pipeline's steady state (zero allocations
	// once the tally exists).
	for _, block := range []int{64, 4096} {
		var blks []*relation.Block
		for lo := 0; lo < n; lo += block {
			blk := relation.NewBlock(r.Schema())
			fillBlock(blk, r, lo, min(lo+block, n))
			blks = append(blks, blk)
		}
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tally := sc.NewTally()
				var bs BlockScratch
				for _, blk := range blks {
					if err := sc.ScanColumns(blk, tally, &bs); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}
