package mark

import (
	"errors"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/quality"
	"repro/internal/relation"
)

// ScanTuple accumulates one tuple's vote into t — the reference
// definition of the per-tuple work every detection engine batches:
// re-derive fitness and bit position from the tuple's own key through
// the unbatched keyed hash (keyhash.Hash), read the value-index parity,
// tally it. tup must be in the schema attribute order the scanner was
// prepared against. Production paths all scan block-at-a-time, so this
// is test-only: the oracle ScanColumns is proven against
// (TestScanBlockMatchesScanTuple, FuzzScanColumnsEquivalence).
func (s *Scanner) ScanTuple(tup relation.Tuple, t *Tally) {
	t.Rows++
	keyVal := []byte(tup[s.keyCol])
	if !keyhash.Fit(keyhash.Hash(s.opts.K1, keyVal), s.opts.E) {
		return
	}
	t.Fit++
	idx, ok := s.dom.Index(tup[s.attrCol])
	if !ok {
		t.UnknownValues++
		return
	}
	pos := int(keyhash.Hash(s.opts.K2, keyVal).Mod(uint64(s.bw)))
	bit := uint8(idx & 1)
	if bit == ecc.One {
		t.Votes[pos].Ones++
	} else {
		t.Votes[pos].Zeros++
	}
	t.Last[pos] = bit
}

// EmbedTuple embeds row row of r into cs — the reference definition of
// the per-tuple work EmbedColumns batches, written without it: fitness
// and bit position from the unbatched keyed hash (keyhash.Hash) over the
// row's own key, the ledger check, the value-index choice, the rewrite
// through the quality gate, the counters and the OnAlter hook, in that
// order. Test-only: the oracle of TestEmbedBlockMatchesSizeOne,
// TestEmbedBlockOrderDependentLedger and FuzzEmbedColumnsEquivalence.
func (e *Embedder) EmbedTuple(r *relation.Relation, row int, cs *ChunkStats) error {
	cs.Bandwidth = e.bw
	if cs.Touched == nil {
		cs.Touched = make([]bool, e.bw)
	}
	cs.Tuples++
	tup := r.Tuple(row)
	keyVal := []byte(tup[e.keyCol])
	d1 := keyhash.Hash(e.opts.K1, keyVal)
	if !keyhash.Fit(d1, e.opts.E) {
		return nil
	}
	cs.Fit++
	if e.opts.SkipRow != nil && e.opts.SkipRow(row) {
		cs.SkippedLedger++
		return nil
	}
	pos := int(keyhash.Hash(e.opts.K2, keyVal).Mod(uint64(e.bw)))
	newVal := e.dom.Value(keyhash.PairIndex(d1.Uint64At(1), e.dom.Size(), uint64(e.wmData[pos])))
	if tup[e.attrCol] == newVal {
		cs.Unchanged++
		cs.Touched[pos] = true
		return nil
	}
	if e.opts.Assessor != nil {
		if err := e.opts.Assessor.Apply(r, row, e.opts.Attr, newVal); err != nil {
			var verr *quality.ViolationError
			if errors.As(err, &verr) {
				cs.SkippedQuality++
				return nil
			}
			return err
		}
	} else if err := r.SetValue(row, e.opts.Attr, newVal); err != nil {
		return err
	}
	cs.Altered++
	cs.Touched[pos] = true
	if e.opts.OnAlter != nil {
		e.opts.OnAlter(row)
	}
	return nil
}

// scanStored scans every stored block of r, in order, into t through
// ScanColumns — the materialized detection loop of mark.Detect.
func scanStored(t testing.TB, sc *Scanner, r *relation.Relation, tally *Tally, bs *BlockScratch) {
	t.Helper()
	for i := 0; i < r.NumBlocks(); i++ {
		if err := sc.ScanColumns(r.Block(i), tally, bs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanTupleMatchesScan proves the per-tuple entry point is the vote
// kernel the block scan batches: feeding every tuple through ScanTuple —
// including split across multiple tallies merged in scan order — yields
// the same tally and the same decoded report as ScanColumns over the
// relation's stored blocks, for both vote-aggregation policies.
func TestScanTupleMatchesScan(t *testing.T) {
	r := scanTupleTestRelation(t)
	wm := ecc.MustParseBits("1011001110")
	for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("st-k1"), K2: keyhash.NewKey("st-k2"),
			E: 3, Aggregation: agg,
		}
		if _, err := Embed(r, wm, opts); err != nil {
			t.Fatal(err)
		}
		sc, err := NewScanner(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}

		whole := sc.NewTally()
		scanStored(t, sc, r, whole, nil)

		// One tuple at a time into a single tally.
		single := sc.NewTally()
		for j := 0; j < r.Len(); j++ {
			sc.ScanTuple(r.Tuple(j), single)
		}
		if !reflect.DeepEqual(whole, single) {
			t.Fatalf("%v: tuple-at-a-time tally diverged from Scan", agg)
		}

		// Split across per-tuple tallies, merged in scan order — the
		// streaming fan-out shape. Last-write-wins depends on this order.
		merged := sc.NewTally()
		for j := 0; j < r.Len(); j++ {
			part := sc.NewTally()
			sc.ScanTuple(r.Tuple(j), part)
			merged.Merge(part)
		}
		if !reflect.DeepEqual(whole, merged) {
			t.Fatalf("%v: merged per-tuple tallies diverged from Scan", agg)
		}

		wantRep, err := sc.Report(whole)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := sc.Report(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("%v: report mismatch:\n got %+v\nwant %+v", agg, gotRep, wantRep)
		}
		if gotRep.WM.String() != wm.String() {
			t.Fatalf("%v: recovered %s, want %s", agg, gotRep.WM, wm)
		}
	}
}

func scanTupleTestRelation(t *testing.T) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeInt},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	values := []string{"a", "b", "c", "d"}
	for i := 0; i < 600; i++ {
		r.MustAppend(relation.Tuple{strconv.Itoa(i), values[i%len(values)]})
	}
	return r
}
