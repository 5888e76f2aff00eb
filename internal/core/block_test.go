package core

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
)

// TestVerifyBatchBlockKnobsEquivalence proves the BatchOptions knobs
// are pure execution strategy: sequential or on a worker pool, through
// a scanner cache on both its miss and its hit path, reports are
// bit-identical to the defaults, and the progress hook counts each
// suspect tuple exactly once per pass. (The block-size axis is
// pipeline.Config.BlockRows, covered by the pipeline equivalence tests.)
func TestVerifyBatchBlockKnobsEquivalence(t *testing.T) {
	suspect, records := batchTestCatalog(t, 3000, 5)
	var csv strings.Builder
	if err := relation.WriteCSV(&csv, suspect); err != nil {
		t.Fatal(err)
	}
	scan := func(opts BatchOptions) []BatchReport {
		t.Helper()
		src, err := relation.NewCSVBlockReader(strings.NewReader(csv.String()), suspect.Schema())
		if err != nil {
			t.Fatal(err)
		}
		outs, err := VerifyBatch(context.Background(), records, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}

	want := scan(BatchOptions{})
	if want[0].Err != nil || want[0].Report.Match != 1 {
		t.Fatalf("owner certificate should match: %+v", want[0])
	}

	cache := NewScannerCache(8)
	for _, workers := range []int{1, 2} {
		var ticks atomic.Int64
		got := scan(BatchOptions{
			Workers:  workers,
			Cache:    cache,
			Progress: func(tuples int) { ticks.Add(int64(tuples)) },
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: batch reports diverged from defaults", workers)
		}
		if ticks.Load() != int64(suspect.Len()) {
			t.Fatalf("workers %d: progress %d, want %d", workers, ticks.Load(), suspect.Len())
		}
	}
}
