package mark

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/keyhash"
	"repro/internal/relation"
)

// fillBlock loads rows [lo, hi) of r into a columnar block.
func fillBlock(blk *relation.Block, r *relation.Relation, lo, hi int) {
	blk.Reset(r.Schema())
	for j := lo; j < hi; j++ {
		blk.AppendTuple(r.Tuple(j))
	}
}

// scanRows scans rows [lo, hi) of r into t through ScanColumns over
// pooled blocks of at most relation.BlockRows rows — a scan of an
// arbitrary row range, as a shard or chunk boundary cuts it.
func scanRows(t testing.TB, sc *Scanner, r *relation.Relation, lo, hi int, tally *Tally) {
	t.Helper()
	blk := relation.GetBlock(r.Schema())
	defer relation.PutBlock(blk)
	var bs BlockScratch
	for blockLo := lo; blockLo < hi; blockLo += relation.BlockRows {
		fillBlock(blk, r, blockLo, min(blockLo+relation.BlockRows, hi))
		if err := sc.ScanColumns(blk, tally, &bs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanColumnsMatchesScanTuple is the columnar equivalence property
// over pooled blocks: for random relations and random partitions
// (size-1 blocks and ragged tails included), ScanColumns over one pooled
// block refilled per range accumulates exactly the tally — and exactly
// the report, under both vote aggregations — that the ScanTuple loop
// produces.
func TestScanColumnsMatchesScanTuple(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		n := 1 + rng.Intn(3000)
		r := blockTestRelation(t, n, int64(50+trial))
		for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
			opts := Options{
				Attr: "cat", K1: keyhash.NewKey("col-k1"), K2: keyhash.NewKey("col-k2"),
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
			blk := relation.GetBlock(r.Schema())
			for _, p := range randomPartition(rng, r.Len()) {
				fillBlock(blk, r, p[0], p[1])
				if err := sc.ScanColumns(blk, got, &bs); err != nil {
					t.Fatal(err)
				}
			}
			relation.PutBlock(blk)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d agg %v: ScanColumns tally diverged from ScanTuple loop", trial, agg)
			}

			wantRep, err1 := sc.Report(want)
			gotRep, err2 := sc.Report(got)
			if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(wantRep, gotRep) {
				t.Fatalf("trial %d agg %v: report diverged", trial, agg)
			}
		}
	}
}

// TestScanColumnsInterleavedStoredAndPooled alternates stored blocks and
// a pooled block through ONE scratch — and rewrites a stored block's key
// column between two scans of it — proving the (pointer, generation)
// identity tracking invalidates the memo instead of replaying stale
// digests.
func TestScanColumnsInterleavedStoredAndPooled(t *testing.T) {
	r := blockTestRelation(t, 2000, 31)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("mix-k1"), K2: keyhash.NewKey("mix-k2"),
		E: 3, Domain: blockTestDomain(t), BandwidthOverride: 32,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := scanTupleLoop(sc, r)

	got := sc.NewTally()
	var bs BlockScratch
	blk := relation.GetBlock(r.Schema())
	defer relation.PutBlock(blk)
	for b := 0; b < r.NumBlocks(); b++ {
		lo := b * relation.BlockRows
		if b%2 == 0 {
			fillBlock(blk, r, lo, lo+r.Block(b).Rows())
			if err := sc.ScanColumns(blk, got, &bs); err != nil {
				t.Fatal(err)
			}
		} else if err := sc.ScanColumns(r.Block(b), got, &bs); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("interleaved stored/pooled scan diverged from the ScanTuple loop")
	}

	// Scan stored block 0, rewrite every key in it, scan it again
	// through the same scratch: the second scan must hash the new keys.
	first := sc.NewTally()
	if err := sc.ScanColumns(r.Block(0), first, &bs); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < r.Block(0).Rows(); j++ {
		if err := r.SetValue(j, "id", "rekeyed-"+strconv.Itoa(j)); err != nil {
			t.Fatal(err)
		}
	}
	again := sc.NewTally()
	if err := sc.ScanColumns(r.Block(0), again, &bs); err != nil {
		t.Fatal(err)
	}
	oracle := sc.NewTally()
	for j := 0; j < r.Block(0).Rows(); j++ {
		sc.ScanTuple(r.Tuple(j), oracle)
	}
	if !reflect.DeepEqual(oracle, again) {
		t.Fatal("scan after a key rewrite replayed stale digests")
	}
	if reflect.DeepEqual(first, again) {
		t.Fatal("key rewrite changed no vote — test is vacuous")
	}
}

// TestScanColumnsSharedScratchAcrossScanners proves lane sharing holds
// on the columnar path too: scanners sharing a fitness key replay each
// other's HashColumn digests through one scratch, and a block refilled
// in place (same pointer, bumped generation) is re-hashed, not replayed.
func TestScanColumnsSharedScratchAcrossScanners(t *testing.T) {
	r := blockTestRelation(t, 1500, 13)
	dom := blockTestDomain(t)
	newOpts := func(k1, k2 string) Options {
		return Options{
			Attr: "cat", K1: keyhash.NewKey(k1), K2: keyhash.NewKey(k2),
			E: 3, Domain: dom, BandwidthOverride: 32,
		}
	}
	optsList := []Options{
		newOpts("colowner-a", "colowner-a2"),
		newOpts("colowner-a", "colother-k2"), // shares the k1 memo lane with the first
		newOpts("colowner-b", "colowner-b2"),
	}
	scanners := make([]*Scanner, len(optsList))
	want := make([]*Tally, len(optsList))
	for i, o := range optsList {
		sc, err := NewScanner(r, 8, o)
		if err != nil {
			t.Fatal(err)
		}
		scanners[i] = sc
		want[i] = scanTupleLoop(sc, r)
	}

	got := make([]*Tally, len(scanners))
	for i, sc := range scanners {
		got[i] = sc.NewTally()
	}
	var bs BlockScratch
	blk := relation.GetBlock(r.Schema()) // one block, refilled per partition
	rng := rand.New(rand.NewSource(14))
	for _, p := range randomPartition(rng, r.Len()) {
		fillBlock(blk, r, p[0], p[1])
		for i, sc := range scanners {
			if err := sc.ScanColumns(blk, got[i], &bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	relation.PutBlock(blk)
	for i := range scanners {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("scanner %d: shared-scratch columnar tally diverged from solo scan", i)
		}
	}
}

// TestScanColumnsSteadyStateAllocs pins the tentpole invariant at the
// codec layer: once the scratch is warm, scanning pooled columnar
// blocks performs zero allocations per block, and therefore per row.
func TestScanColumnsSteadyStateAllocs(t *testing.T) {
	r := blockTestRelation(t, 1024, 17)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("al-k1"), K2: keyhash.NewKey("al-k2"),
		E: 2, Domain: blockTestDomain(t), BandwidthOverride: 32,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct blocks so every scan re-keys the memo (pointer or
	// generation changes) instead of replaying the previous call.
	blkA := relation.GetBlock(r.Schema())
	blkB := relation.GetBlock(r.Schema())
	fillBlock(blkA, r, 0, 512)
	fillBlock(blkB, r, 512, 1024)
	tally := sc.NewTally()
	var bs BlockScratch
	scanBoth := func() {
		if err := sc.ScanColumns(blkA, tally, &bs); err != nil {
			t.Fatal(err)
		}
		if err := sc.ScanColumns(blkB, tally, &bs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm the scratch, memo lanes and staging
		scanBoth()
	}
	if allocs := testing.AllocsPerRun(50, scanBoth); allocs != 0 {
		t.Fatalf("steady-state ScanColumns allocates: %.1f allocs per 2-block scan", allocs)
	}
	relation.PutBlock(blkA)
	relation.PutBlock(blkB)
}

// TestScanColumnsArityGuard pins the error for a block missing the
// scanner's columns.
func TestScanColumnsArityGuard(t *testing.T) {
	r := blockTestRelation(t, 10, 3)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("ag-k1"), K2: keyhash.NewKey("ag-k2"),
		E: 2, Domain: blockTestDomain(t), BandwidthOverride: 16,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	narrow := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
	}, "id")
	blk := relation.GetBlock(narrow)
	if err := sc.ScanColumns(blk, sc.NewTally(), nil); err == nil {
		t.Fatal("expected arity error for a block lacking the attribute column")
	}
	relation.PutBlock(blk)
}
