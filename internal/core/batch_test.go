package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// batchTestCatalog watermarks one dataset under the first secret and
// builds a catalog of K certificates (the other K-1 belong to different
// owners over the same domain — the adversarial-audit shape).
func batchTestCatalog(t testing.TB, n, k int) (*relation.Relation, []*Record) {
	t.Helper()
	r, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: n, CatalogSize: 200, ZipfS: 1.0, Seed: "batch-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Watermark(r, Spec{
		Secret:    "batch-owner-0",
		Attribute: "Item_Nbr",
		WM:        "1011001110",
		E:         20,
		Domain:    dom,
	})
	if err != nil {
		t.Fatal(err)
	}
	records := make([]*Record, k)
	records[0] = rec
	for i := 1; i < k; i++ {
		other := *rec
		other.Secret = fmt.Sprintf("batch-owner-%d", i)
		records[i] = &other
	}
	return r, records
}

// TestVerifyBatchMatchesIndividualVerify is the batch-equivalence
// acceptance test: one VerifyBatch pass over K certificates produces,
// per certificate, a Report identical to that certificate's own
// Record.Verify over the materialized suspect — matching owner and
// non-matching bystanders alike — and identical again when the suspect
// arrives as a CSV stream and the scans run on a worker pool.
func TestVerifyBatchMatchesIndividualVerify(t *testing.T) {
	suspect, records := batchTestCatalog(t, 4000, 6)

	want := make([]Report, len(records))
	for i, rec := range records {
		rep, err := rec.Verify(suspect)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want[i] = rep
	}
	if want[0].Match != 1 {
		t.Fatalf("owner certificate should fully match, got %v", want[0].Match)
	}

	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, suspect); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []BatchOptions{
		{},
		{Workers: 4},
		{Workers: 4, Cache: NewScannerCache(3)}, // smaller than the catalog: forces evictions
	} {
		// In-memory stream.
		got, err := VerifyBatch(context.Background(), records, relation.Rows(suspect), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, got, want)

		// CSV stream — the server's ingestion path.
		src, err := relation.NewCSVBlockReader(strings.NewReader(csvData.String()), suspect.Schema())
		if err != nil {
			t.Fatal(err)
		}
		got, err = VerifyBatch(context.Background(), records, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, got, want)
	}
}

func assertBatchEqual(t *testing.T, got []BatchReport, want []Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("record %d: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Report, want[i]) {
			t.Errorf("record %d: batch report diverged:\n got %+v\nwant %+v",
				i, got[i].Report, want[i])
		}
	}
}

// TestVerifyBatchBadRecord asserts one corrupt certificate fails alone,
// not the batch.
func TestVerifyBatchBadRecord(t *testing.T) {
	suspect, records := batchTestCatalog(t, 2000, 2)
	bad := *records[1]
	bad.WM = "10x1"
	out, err := VerifyBatch(context.Background(), []*Record{records[0], &bad}, relation.Rows(suspect), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[0].Report.Match != 1 {
		t.Fatalf("good record: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("corrupt record slipped through")
	}
}

// TestScannerCacheConcurrent hammers one small cache from concurrent
// verifies over a shared catalog — the wmserver request pattern — and is
// run under -race in CI. Every result must still match the uncached
// verify, with the cache evicting and re-deriving under contention.
func TestScannerCacheConcurrent(t *testing.T) {
	suspect, records := batchTestCatalog(t, 2000, 8)
	want := make([]Report, len(records))
	for i, rec := range records {
		rep, err := rec.Verify(suspect)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	cache := NewScannerCache(3) // far smaller than the catalog
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				i := (g + iter) % len(records)
				rep, err := records[i].VerifyWith(suspect, VerifyOptions{Workers: 2, Cache: cache})
				if err != nil {
					errs <- fmt.Errorf("record %d: %w", i, err)
					return
				}
				if !reflect.DeepEqual(rep, want[i]) {
					errs <- fmt.Errorf("record %d: cached verify diverged", i)
					return
				}
				out, err := VerifyBatch(context.Background(), records[i:i+1:i+1], relation.Rows(suspect), BatchOptions{Cache: cache})
				if err != nil {
					errs <- err
					return
				}
				if out[0].Err != nil || !reflect.DeepEqual(out[0].Report, want[i]) {
					errs <- fmt.Errorf("record %d: cached batch verify diverged", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := cache.Stats()
	if st.Entries > 3 {
		t.Fatalf("cache exceeded its bound: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("cache never derived anything: %+v", st)
	}
	// With 8 keys thrashing 3 slots, hits during the hammer are not
	// guaranteed — but a quiet back-to-back verify must hit.
	before := cache.Stats().Hits
	if _, err := records[0].VerifyWith(suspect, VerifyOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if _, err := records[0].VerifyWith(suspect, VerifyOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits == before {
		t.Fatal("back-to-back cached verifies never hit the cache")
	}
}
