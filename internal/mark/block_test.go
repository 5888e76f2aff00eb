package mark

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
)

// blockTestRelation builds a relation with a mix of in-domain, unknown
// and repeated categorical values so every ScanBlock branch (vote,
// unknown value, unfit) is exercised.
func blockTestRelation(t testing.TB, n int, seed int64) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	rng := rand.New(rand.NewSource(seed))
	values := []string{"a", "b", "c", "d", "e", "f", "zz-unknown"}
	for i := 0; i < n; i++ {
		id := strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(rng.Intn(1<<30)) + "-" + strconv.Itoa(i)
		r.MustAppend(relation.Tuple{id, values[rng.Intn(len(values))]})
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

// TestScanBlockMatchesScanTuple is the block-engine equivalence
// property: for random relations and random block partitions (block
// size 1 and ragged tails included), ScanBlock accumulates exactly the
// tally — and therefore exactly the report, under both vote
// aggregations — that the ScanTuple loop produces.
func TestScanBlockMatchesScanTuple(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 1 + rng.Intn(3000)
		r := blockTestRelation(t, n, int64(trial))
		for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
			for _, kind := range []keyhash.KernelKind{keyhash.KernelAuto, keyhash.KernelPortable} {
				opts := Options{
					Attr: "cat", K1: keyhash.NewKey("bk-k1"), K2: keyhash.NewKey("bk-k2"),
					E: 3, Aggregation: agg, Domain: blockTestDomain(t),
					BandwidthOverride: 40, HashKernel: kind,
				}
				sc, err := NewScanner(r, 10, opts)
				if err != nil {
					t.Fatal(err)
				}

				want := sc.NewTally()
				for j := 0; j < r.Len(); j++ {
					sc.ScanTuple(r.Tuple(j), want)
				}

				got := sc.NewTally()
				var bs BlockScratch
				for _, p := range randomPartition(rng, r.Len()) {
					if err := sc.ScanBlock(r, p[0], p[1], got, &bs); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d agg %v kernel %q: ScanBlock tally diverged from ScanTuple loop", trial, agg, kind)
				}

				wantRep, err1 := sc.Report(want)
				gotRep, err2 := sc.Report(got)
				if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(wantRep, gotRep) {
					t.Fatalf("trial %d agg %v kernel %q: report diverged", trial, agg, kind)
				}
			}
		}
	}
}

// TestScanBlockSizeOneIsScanTuple pins the degenerate block: a size-1
// ScanBlock is exactly one ScanTuple (reference) call.
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
	for j := 0; j < r.Len(); j++ {
		sc.ScanTuple(r.Tuple(j), want)
		if err := sc.ScanBlock(r, j, j+1, got, &bs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("row %d: size-1 ScanBlock diverged from ScanTuple", j)
		}
	}
}

// TestScanBlockSharedScratchAcrossScanners proves scratch sharing is
// sound: many scanners — some sharing a fitness key (same memo lane),
// some not — sweeping the same blocks through ONE scratch produce the
// same tallies as each scanning alone with its own scratch.
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

	// Alone, fresh scratch each.
	want := make([]*Tally, len(scanners))
	for i, sc := range scanners {
		want[i] = sc.NewTally()
		if err := sc.Scan(r, 0, r.Len(), want[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Together, one scratch, certificate-inner-loop-per-block.
	got := make([]*Tally, len(scanners))
	for i, sc := range scanners {
		got[i] = sc.NewTally()
	}
	var bs BlockScratch
	rng := rand.New(rand.NewSource(12))
	for _, p := range randomPartition(rng, r.Len()) {
		for i, sc := range scanners {
			if err := sc.ScanBlock(r, p[0], p[1], got[i], &bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range scanners {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("scanner %d: shared-scratch tally diverged from solo scan", i)
		}
	}
}

// TestEmbedBlockMatchesSizeOne is the embedding-side property: embedding
// through random block partitions yields the same relation bytes and the
// same merged statistics as the block-size-1 walk (the tuple-at-a-time
// special case), for both plain and ledger-gated embeddings.
func TestEmbedBlockMatchesSizeOne(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		n := 50 + rng.Intn(2500)
		base := blockTestRelation(t, n, int64(40+trial))
		skip := func(row int) bool { return row%7 == 3 }
		for _, withLedger := range []bool{false, true} {
			opts := Options{
				Attr: "cat", K1: keyhash.NewKey("eb-k1"), K2: keyhash.NewKey("eb-k2"),
				E: 3, Domain: blockTestDomain(t), BandwidthOverride: 30,
			}
			if withLedger {
				opts.SkipRow = skip
			}

			// Oracle: block-size-1 walk.
			r1 := base.Clone()
			em1, err := NewEmbedder(r1, wm, opts)
			if err != nil {
				t.Fatal(err)
			}
			var cs1 ChunkStats
			var bs1 BlockScratch
			for j := 0; j < r1.Len(); j++ {
				if err := em1.EmbedBlock(r1, j, j+1, &cs1, &bs1); err != nil {
					t.Fatal(err)
				}
			}

			// Random partition through a shared scratch.
			r2 := base.Clone()
			em2, err := NewEmbedder(r2, wm, opts)
			if err != nil {
				t.Fatal(err)
			}
			var cs2 ChunkStats
			var bs2 BlockScratch
			for _, p := range randomPartition(rng, r2.Len()) {
				if err := em2.EmbedBlock(r2, p[0], p[1], &cs2, &bs2); err != nil {
					t.Fatal(err)
				}
			}

			if !r1.Equal(r2) {
				t.Fatalf("trial %d ledger=%v: block embedding altered different tuples", trial, withLedger)
			}
			if !reflect.DeepEqual(MergeChunks(cs1), MergeChunks(cs2)) {
				t.Fatalf("trial %d ledger=%v: stats diverged:\n one-row %+v\n blocks  %+v",
					trial, withLedger, MergeChunks(cs1), MergeChunks(cs2))
			}
		}
	}
}

// TestEmbedBlockOrderDependentLedger pins the hook-interleaving
// contract: a SkipRow that reads state OnAlter writes (here, an
// alteration budget that closes mid-pass) must observe exactly the
// sequential interleaving — SkipRow(j) after every earlier row's
// OnAlter — no matter how the rows are blocked.
func TestEmbedBlockOrderDependentLedger(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	base := blockTestRelation(t, 2000, 21)
	embed := func(partitionSeed int64) (*relation.Relation, ChunkStats) {
		altered := 0
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("ol-k1"), K2: keyhash.NewKey("ol-k2"),
			E: 3, Domain: blockTestDomain(t), BandwidthOverride: 30,
			SkipRow: func(int) bool { return altered >= 25 }, // budget ledger
			OnAlter: func(int) { altered++ },
		}
		r := base.Clone()
		em, err := NewEmbedder(r, wm, opts)
		if err != nil {
			t.Fatal(err)
		}
		var cs ChunkStats
		var bs BlockScratch
		if partitionSeed < 0 { // the size-1 oracle
			for j := 0; j < r.Len(); j++ {
				if err := em.EmbedBlock(r, j, j+1, &cs, &bs); err != nil {
					t.Fatal(err)
				}
			}
			return r, cs
		}
		for _, p := range randomPartition(rand.New(rand.NewSource(partitionSeed)), r.Len()) {
			if err := em.EmbedBlock(r, p[0], p[1], &cs, &bs); err != nil {
				t.Fatal(err)
			}
		}
		return r, cs
	}

	wantRel, wantStats := embed(-1)
	if wantStats.SkippedLedger == 0 || wantStats.Altered != 25 {
		t.Fatalf("ledger never closed — test is vacuous: %+v", wantStats)
	}
	for seed := int64(0); seed < 4; seed++ {
		gotRel, gotStats := embed(seed)
		if !gotRel.Equal(wantRel) {
			t.Fatalf("seed %d: blocked embedding diverged from sequential under order-dependent ledger", seed)
		}
		if !reflect.DeepEqual(MergeChunks(gotStats), MergeChunks(wantStats)) {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, MergeChunks(gotStats), MergeChunks(wantStats))
		}
	}
}

// FuzzScanBlockEquivalence lets the fuzzer pick the relation size, seed,
// fitness parameter and block partition seed, and re-checks the
// ScanBlock ≡ ScanTuple-loop property.
func FuzzScanBlockEquivalence(f *testing.F) {
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
		want := sc.NewTally()
		for j := 0; j < r.Len(); j++ {
			sc.ScanTuple(r.Tuple(j), want)
		}
		got := sc.NewTally()
		var bs BlockScratch
		for _, p := range randomPartition(rand.New(rand.NewSource(partSeed)), r.Len()) {
			if err := sc.ScanBlock(r, p[0], p[1], got, &bs); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("n=%d e=%d: ScanBlock diverged from ScanTuple loop", n, e)
		}
	})
}

// BenchmarkScanBlock measures ScanBlock across block sizes and the
// columnar ScanColumns path — the microbenchmark behind the block
// engine's headline (the CI bench job tracks it).
func BenchmarkScanBlock(b *testing.B) {
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
	for _, block := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tally := sc.NewTally()
				var bs BlockScratch
				for lo := 0; lo < n; lo += block {
					if err := sc.ScanBlock(r, lo, min(lo+block, n), tally, &bs); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
	// The columnar path: the same rows pre-packed into arena-backed
	// blocks, voted through ScanColumns — the ingestion pipeline's
	// steady state (zero allocations once the tally exists).
	for _, block := range []int{512, 4096} {
		var blks []*relation.Block
		for lo := 0; lo < n; lo += block {
			blk := relation.NewBlock(r.Schema())
			blk.Reset(r.Schema())
			for j := lo; j < min(lo+block, n); j++ {
				if err := blk.AppendTuple(r.Tuple(j)); err != nil {
					b.Fatal(err)
				}
			}
			blks = append(blks, blk)
		}
		b.Run(fmt.Sprintf("columns=%d", block), func(b *testing.B) {
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
