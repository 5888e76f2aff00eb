package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
)

// detectManyData builds a relation carrying several watermarks embedded
// under distinct key pairs — the suspect-against-catalog shape — and
// returns it with the option sets of every certificate (only the first
// two actually marked the data; the rest are innocent bystanders whose
// detection must still be bit-identical to their individual scans).
func detectManyData(t *testing.T, agg mark.VoteAggregation) (*relation.Relation, []mark.Options, ecc.Bits) {
	t.Helper()
	r, dom := testData(t, 5000)
	wm := ecc.MustParseBits("1011001110")
	var optsSet []mark.Options
	for i := 0; i < 5; i++ {
		opts := mark.Options{
			Attr:        "Item_Nbr",
			K1:          keyhash.NewKey(fmt.Sprintf("dm-k1-%d", i)),
			K2:          keyhash.NewKey(fmt.Sprintf("dm-k2-%d", i)),
			E:           20,
			Domain:      dom,
			Aggregation: agg,
		}
		optsSet = append(optsSet, opts)
	}
	for i := 0; i < 2; i++ {
		st, err := mark.Embed(r, wm, optsSet[i])
		if err != nil {
			t.Fatal(err)
		}
		optsSet[i].BandwidthOverride = st.Bandwidth
	}
	for i := 2; i < len(optsSet); i++ {
		optsSet[i].BandwidthOverride = mark.Bandwidth(r.Len(), optsSet[i].E)
	}
	return r, optsSet, wm
}

// TestDetectManyMatchesIndividualScans is the one-scan equivalence proof:
// fanning N prepared scanners over a single stream pass (ScanMany) and
// aggregating each tally (Scanner.Report) yields, for every scanner,
// exactly the report a dedicated sequential mark.Detect (and a dedicated
// single-scanner stream pass) would produce — for both vote-aggregation
// policies, and regardless of chunk boundaries.
func TestDetectManyMatchesIndividualScans(t *testing.T) {
	for _, agg := range []mark.VoteAggregation{mark.MajorityVote, mark.LastWriteWins} {
		t.Run(agg.String(), func(t *testing.T) {
			r, optsSet, wm := detectManyData(t, agg)

			scanners := make([]*mark.Scanner, len(optsSet))
			for i, opts := range optsSet {
				sc, err := mark.NewStreamScanner(r.Schema(), len(wm), opts)
				if err != nil {
					t.Fatal(err)
				}
				scanners[i] = sc
			}
			cfg := Config{Workers: 4, ChunkRows: 700} // uneven tail on purpose
			tallies, err := ScanMany(context.Background(), relation.Rows(r), scanners, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tallies) != len(optsSet) {
				t.Fatalf("got %d tallies, want %d", len(tallies), len(optsSet))
			}

			reports := make([]mark.DetectReport, len(scanners))
			for i, opts := range optsSet {
				want, err := mark.Detect(r, len(wm), opts)
				if err != nil {
					t.Fatal(err)
				}
				if reports[i], err = scanners[i].Report(tallies[i]); err != nil {
					t.Fatalf("scanner %d: %v", i, err)
				}
				if !reflect.DeepEqual(reports[i], want) {
					t.Errorf("scanner %d: fan-out report diverged:\n got %+v\nwant %+v",
						i, reports[i], want)
				}
				solo, err := scanReport(t, relation.Rows(r), len(wm), opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(solo, want) {
					t.Errorf("scanner %d: single-scanner stream pass diverged from mark.Detect", i)
				}
			}
			// The marked certificates recover their watermark perfectly.
			for i := 0; i < 2; i++ {
				if got := reports[i].WM.String(); got != wm.String() {
					t.Errorf("marked certificate %d recovered %s, want %s", i, got, wm)
				}
			}
		})
	}
}

// TestScanManyZeroScanners asserts the degenerate case neither fails nor
// consumes the stream.
func TestScanManyZeroScanners(t *testing.T) {
	r, _ := testData(t, 10)
	src := relation.Rows(r)
	tallies, err := ScanMany(context.Background(), src, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tallies) != 0 {
		t.Fatalf("got %d tallies, want 0", len(tallies))
	}
	if tup, err := src.Read(); err != nil || tup == nil {
		t.Fatalf("stream was consumed: tuple %v, err %v", tup, err)
	}
}

// TestScanManyPropagatesReadError asserts a corrupt stream fails the whole
// batch rather than returning partial tallies.
func TestScanManyPropagatesReadError(t *testing.T) {
	r, dom := testData(t, 100)
	opts := mark.Options{
		Attr: "Item_Nbr", K1: keyhash.NewKey("er-k1"), K2: keyhash.NewKey("er-k2"),
		E: 5, Domain: dom, BandwidthOverride: 20,
	}
	sc, err := mark.NewStreamScanner(r.Schema(), 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		t.Fatal(err)
	}
	broken := csvData.String() + "not,a,valid,row,at,all\n"
	src, err := relation.NewCSVBlockReader(strings.NewReader(broken), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScanMany(context.Background(), src, []*mark.Scanner{sc}, Config{Workers: 2, ChunkRows: 16}); err == nil {
		t.Fatal("ScanMany swallowed a stream read error")
	}
}
