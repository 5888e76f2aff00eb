package pipeline

import (
	"context"
	"io"
	"sync"

	"repro/internal/ecc"
	"repro/internal/mark"
	"repro/internal/relation"
)

// Streaming ingestion: the same worker pool, fed from a
// relation.RowReader instead of a materialized relation. Detection
// (ScanMany and its wrappers) runs on the columnar block engine of
// blockstream.go; embedding (EmbedReader) buffers rows into chunk-sized
// mini-relations that workers rewrite while the reader fills the next.
// Either way a single collector consumes results in chunk order (so
// LastWriteWins detection and output row order match the sequential
// pass), and memory is bounded by workers × chunk size, never by the
// dataset.
//
// Because the stream's length is unknown up front, both directions
// require Options.BandwidthOverride (the embedding-time |wm_data|) and
// Options.Domain (the value catalog) — exactly the parameters that travel
// in a core.Record. Streaming detection never checks primary-key
// uniqueness: a key that occurs twice (an additive or mix-and-match
// attack produces exactly that) is scored once per copy, wherever the
// copies fall in the stream. EmbedReader's keyed mini-relations reject a
// key repeated within one chunk, but not across chunks.

// StreamChunkRows is the default chunk size for streaming passes.
const StreamChunkRows = 8192

func (c Config) streamChunkRows() int {
	if c.ChunkRows > 0 {
		return c.ChunkRows
	}
	return StreamChunkRows
}

// streamJob is one chunk travelling through the streaming pool: the
// mini-relation plus a rendezvous channel its embedding statistics come
// back on.
type streamJob struct {
	rel *relation.Relation
	res chan streamResult
}

type streamResult struct {
	cs  mark.ChunkStats
	err error
}

// runStream reads chunk mini-relations from src and routes each through
// work on a pool of workers, invoking collect for every chunk (with the
// statistics work returned for it) in stream order — the engine behind
// EmbedReader. It returns the first error from reading, working, or
// collecting; a collect error stops the reader early. A cancelled ctx stops the reader between rows — the
// source is NOT drained — and the call reports ctx.Err().
//
// Chunk relations are recycled: once collect returns for a chunk, its
// mini-relation goes back to the reader for refilling, so neither work
// nor collect may retain it (or any tuple of it) past their return.
func runStream(ctx context.Context, src relation.RowReader, cfg Config, work func(*relation.Relation) (mark.ChunkStats, error), collect func(*relation.Relation, mark.ChunkStats) error) error {
	workers := cfg.workers()
	chunkRows := cfg.streamChunkRows()

	jobs := make(chan *streamJob, workers)
	ordered := make(chan *streamJob, workers)
	freeRels := make(chan *relation.Relation, 2*workers)
	stop := make(chan struct{})
	var stopOnce sync.Once

	// A cancelled ctx trips the same stop latch a collect error does, so
	// the reader and dispatcher unwind through one path.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			stopOnce.Do(func() { close(stop) })
		case <-watcherDone:
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if ctx.Err() != nil {
					job.res <- streamResult{err: ctx.Err()}
					continue
				}
				cs, err := work(job.rel)
				job.res <- streamResult{cs, err}
			}
		}()
	}

	var readErr error
	go func() {
		defer close(jobs)
		defer close(ordered)
		newRel := func() *relation.Relation {
			select {
			case r := <-freeRels:
				r.Reset()
				return r
			default:
				return relation.New(src.Schema())
			}
		}
		rel := newRel()
		dispatch := func() bool {
			job := &streamJob{rel: rel, res: make(chan streamResult, 1)}
			select {
			case <-stop:
				return false
			case jobs <- job:
			}
			ordered <- job
			rel = newRel()
			return true
		}
		stopped := func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}
		for {
			if stopped() {
				return
			}
			t, err := src.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				return
			}
			if err := rel.Append(t); err != nil {
				readErr = err
				return
			}
			if rel.Len() >= chunkRows {
				if !dispatch() {
					return
				}
			}
		}
		if rel.Len() > 0 {
			dispatch()
		}
	}()

	var firstErr error
	for job := range ordered {
		r := <-job.res
		if firstErr == nil {
			if r.err != nil {
				firstErr = r.err
			} else if err := collect(job.rel, r.cs); err != nil {
				firstErr = err
			}
			if firstErr != nil {
				stopOnce.Do(func() { close(stop) })
			}
		}
		select { // collect is done with the chunk — recycle it
		case freeRels <- job.rel:
		default:
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if readErr != nil && firstErr == nil {
		firstErr = readErr
	}
	return firstErr
}

// EmbedReader streams rows from src, watermarks them chunk-by-chunk on a
// worker pool, and writes the (possibly rewritten) rows to dst in input
// order. Requires opts.Domain and opts.BandwidthOverride — with an
// unknown stream length there is no N to derive either from. The emitted
// rows are identical to what a materialized mark.Embed pass would
// produce under the same bandwidth and domain.
func EmbedReader(ctx context.Context, src relation.RowReader, dst relation.RowWriter, wm ecc.Bits, opts mark.Options, cfg Config) (mark.EmbedStats, error) {
	if err := validateChunkable(opts, "embed"); err != nil {
		return mark.EmbedStats{}, err
	}
	em, err := mark.NewStreamEmbedder(src.Schema(), wm, opts)
	if err != nil {
		return mark.EmbedStats{}, err
	}
	var agg mark.ChunkStats
	err = runStream(ctx, src, cfg,
		func(rel *relation.Relation) (mark.ChunkStats, error) {
			var cs mark.ChunkStats
			var bs mark.BlockScratch
			err := embedRange(ctx, em, rel, 0, rel.Len(), &cs, &bs, cfg)
			return cs, err
		},
		func(rel *relation.Relation, cs mark.ChunkStats) error {
			for i := 0; i < rel.Len(); i++ {
				if err := dst.Write(rel.Tuple(i)); err != nil {
					return err
				}
			}
			agg.Add(cs)
			return nil
		})
	if err != nil {
		return mark.EmbedStats{}, err
	}
	if err := dst.Flush(); err != nil {
		return mark.EmbedStats{}, err
	}
	st := mark.MergeChunks(agg)
	st.Bandwidth = em.Bandwidth() // an empty stream still has a fixed |wm_data|
	return st, nil
}

// ScanMany is the fan-out detection engine: it drives every prepared
// scanner over a SINGLE pass of src and returns one merged tally per
// scanner, in scanner order. The pass runs on the columnar block engine
// (scanManyBlocks): the reader fills fixed-size blocks, workers scan
// chunk-sized groups of them with the certificate loop INSIDE the block
// loop — each block's key column is hashed once per distinct lane
// (certificates sharing an owner secret replay each other's digests
// through the scratch memo) and stays cache-resident while every scanner
// sweeps it. Per-chunk tallies merge in stream order, so every tally —
// including its LastWriteWins column — is bit-identical to scanning the
// materialized stream with that scanner alone. The dataset is read,
// parsed and chunked exactly once no matter how many scanners ride the
// pass; this is what makes corpus-against-catalog verification
// (core.VerifyBatch) scale with the number of certificates.
//
// The zero-copy block readers (relation.CSVBlockReader,
// relation.JSONLBlockReader) are scanned without a per-row allocation;
// any other RowReader is adapted through relation.Blocks.
//
// Scanners must have been prepared against src's schema (their key and
// attribute columns are resolved positions). With zero scanners the stream
// is not consumed. cfg.Progress ticks once per block, with suspect tuples
// covered (not multiplied by the number of scanners).
func ScanMany(ctx context.Context, src relation.RowReader, scanners []*mark.Scanner, cfg Config) ([]*mark.Tally, error) {
	totals := make([]*mark.Tally, len(scanners))
	for i, sc := range scanners {
		totals[i] = sc.NewTally()
	}
	if len(scanners) == 0 {
		return totals, nil
	}
	return scanManyBlocks(ctx, relation.Blocks(src), scanners, totals, cfg)
}

// DetectOutcome is one scanner's result from DetectMany. Err carries a
// per-certificate decode failure (e.g. an ECC that cannot decode the
// recovered wm_data); the scan itself either succeeds for all scanners or
// fails the whole call.
type DetectOutcome struct {
	Report mark.DetectReport
	Err    error
}

// DetectMany runs ScanMany and aggregates each scanner's tally into its
// detection report. Outcomes are in scanner order.
func DetectMany(ctx context.Context, src relation.RowReader, scanners []*mark.Scanner, cfg Config) ([]DetectOutcome, error) {
	tallies, err := ScanMany(ctx, src, scanners, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]DetectOutcome, len(scanners))
	for i, sc := range scanners {
		out[i].Report, out[i].Err = sc.Report(tallies[i])
	}
	return out, nil
}

// DetectReader streams rows from src and recovers a wmLen-bit watermark —
// the single-scanner case of DetectMany. Requires opts.Domain and
// opts.BandwidthOverride. The recovered bit string is bit-identical to
// running mark.Detect over the materialized stream with the same
// parameters.
func DetectReader(ctx context.Context, src relation.RowReader, wmLen int, opts mark.Options, cfg Config) (mark.DetectReport, error) {
	if err := validateChunkable(opts, "detect"); err != nil {
		return mark.DetectReport{}, err
	}
	sc, err := mark.NewStreamScanner(src.Schema(), wmLen, opts)
	if err != nil {
		return mark.DetectReport{}, err
	}
	outs, err := DetectMany(ctx, src, []*mark.Scanner{sc}, cfg)
	if err != nil {
		return mark.DetectReport{}, err
	}
	return outs[0].Report, outs[0].Err
}
