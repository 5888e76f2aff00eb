package pipeline

import (
	"context"

	"repro/internal/mark"
	"repro/internal/relation"
)

// Streaming detection: ScanMany runs the worker pool over a
// relation.RowReader instead of a materialized relation, on the columnar
// block engine of blockstream.go. A single collector merges per-chunk
// tallies in stream order (so LastWriteWins detection matches the
// sequential pass), and memory is bounded by workers × chunk size, never
// by the dataset.
//
// Because the stream's length is unknown up front, the scanners must be
// prepared with mark.NewStreamScanner, which requires
// Options.BandwidthOverride (the embedding-time |wm_data|) and
// Options.Domain (the value catalog) — exactly the parameters that travel
// in a core.Record. Streaming detection never checks primary-key
// uniqueness: a key that occurs twice (an additive or mix-and-match
// attack produces exactly that) is scored once per copy, wherever the
// copies fall in the stream.

// StreamChunkRows is the default chunk size for streaming passes.
const StreamChunkRows = 8192

func (c Config) streamChunkRows() int {
	if c.ChunkRows > 0 {
		return c.ChunkRows
	}
	return StreamChunkRows
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
