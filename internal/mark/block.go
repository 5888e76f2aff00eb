package mark

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/quality"
	"repro/internal/relation"
)

// Block-at-a-time execution: the codec's per-tuple decisions (fitness,
// bit position, value index) all start from keyed hashes of the tuple's
// own key, so a block of tuples can batch those hashes through one
// keyhash.Kernel call and then replay the per-tuple logic over the
// precomputed digests. ScanColumns and EmbedColumns are the only
// kernels: they read relation.Block column arenas — a pooled block
// filled by a streaming reader, or a block a relation.Relation stores —
// and are bit-identical to tuple-at-a-time loops. The property and fuzz
// tests drive them against per-tuple references (ScanTuple and
// EmbedTuple, kept in the test files as the semantic definition of one
// tuple's work) over random relation sizes and block shapes.
//
// BlockScratch is where the batching pays twice for detection: the
// per-block digest memo (keyhash.BlockMemo) hashes each key value once
// per lane — certificates sharing an owner secret, and therefore a
// fitness key, replay each other's digests instead of rehashing.

// DefaultBlockRows is the block size of the scan engine: the rows per
// block a relation stores and a streaming pass reads by default
// (relation.BlockRows).
const DefaultBlockRows = relation.BlockRows

// BlockScratch carries the reusable state of a block-at-a-time pass:
// the per-block digest memo and the staging arrays. One scratch serves
// any number of scanners — sharing it across certificates is what
// enables digest reuse — but it is mutable state: one scratch per
// goroutine, never shared concurrently. The zero value is ready to use.
type BlockScratch struct {
	memo keyhash.BlockMemo

	// block identity of the memo: the Block pointer plus its generation
	// counter, because pooling reuses pointers and SetValue rewrites a
	// stored block in place.
	blk    *relation.Block
	blkGen uint64

	// staging for the current ScanColumns/EmbedColumns call: the fit
	// keys packed as one contiguous byte run with offsets, feeding
	// Kernel.HashColumn without materializing strings.
	fitBits []uint8
	fitData []byte
	fitOffs []int32
	d1, d2  []keyhash.Digest

	// hash-phase metering (EnableHashTiming): nanoseconds spent inside
	// the two kernel calls of ScanColumns, so a traced pass can split a
	// block's scan time into hash vs vote without touching the per-row
	// loops. Off by default — the untimed path pays one branch per
	// kernel call.
	timeHash  bool
	hashNanos int64
}

// EnableHashTiming makes this scratch's ScanColumns calls meter their
// kernel time. Per-goroutine like the scratch itself; enable once, read
// deltas with HashNanos.
func (bs *BlockScratch) EnableHashTiming() { bs.timeHash = true }

// HashNanos returns the kernel nanoseconds accumulated since the last
// call and resets the counter.
func (bs *BlockScratch) HashNanos() int64 {
	n := bs.hashNanos
	bs.hashNanos = 0
	return n
}

// digests sizes a digest scratch slice for n values.
func digests(buf *[]keyhash.Digest, n int) []keyhash.Digest {
	if cap(*buf) < n {
		*buf = make([]keyhash.Digest, n)
	}
	return (*buf)[:n]
}

// setColumnBlock points the scratch at a columnar block, invalidating
// the memo when the block identity changed. Pooled blocks reuse
// pointers and stored blocks change in place, so identity is the
// (pointer, generation) pair.
func (bs *BlockScratch) setColumnBlock(blk *relation.Block) {
	if bs.blk == blk && bs.blkGen == blk.Gen() {
		return
	}
	bs.blk, bs.blkGen = blk, blk.Gen()
	bs.memo.Reset()
}

// stageColumns resets the columnar staging arrays for a fresh
// ScanColumns walk. fitOffs keeps the leading 0 sentinel so
// fitOffs[i:i+2] brackets staged key i.
func (bs *BlockScratch) stageColumns() {
	bs.fitBits = bs.fitBits[:0]
	bs.fitData = bs.fitData[:0]
	if cap(bs.fitOffs) == 0 {
		bs.fitOffs = make([]int32, 1, 64)
	}
	bs.fitOffs = bs.fitOffs[:1]
	bs.fitOffs[0] = 0
}

// ScanColumns accumulates the votes of a columnar block into t, with
// zero allocations: the key column's arena bytes feed Kernel.HashColumn
// directly (replayed from the scratch memo when another scanner of the
// same lane got there first), the fitness and domain walk stages the
// voting keys as one contiguous byte run, and a second HashColumn call
// derives their positions. Every counter and vote, including the
// order-sensitive Last column, lands exactly as the tuple-at-a-time pass
// over the same rows would have it.
//
// bs may be shared across scanners (that is the point) but not across
// goroutines; nil uses a throwaway scratch.
func (s *Scanner) ScanColumns(blk *relation.Block, t *Tally, bs *BlockScratch) error {
	if arity := blk.Schema().Arity(); s.keyCol >= arity || s.attrCol >= arity {
		return fmt.Errorf("mark: block arity %d lacks column %d", arity, max(s.keyCol, s.attrCol))
	}
	if bs == nil {
		bs = &BlockScratch{}
	}
	bs.setColumnBlock(blk)
	keyData, keyOffs := blk.Col(s.keyCol).Raw()
	var hashStart time.Time
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		hashStart = time.Now()
	}
	d1 := bs.memo.LaneColumn(s.keyCol, s.k1s, s.kern1, keyData, keyOffs)
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		bs.hashNanos += int64(time.Since(hashStart))
	}

	bs.stageColumns()
	n := blk.Rows()
	t.Rows += n
	attrCol := blk.Col(s.attrCol)
	for j := 0; j < n; j++ {
		if !keyhash.Fit(d1[j], s.opts.E) {
			continue
		}
		t.Fit++
		idx, ok := s.dom.IndexBytes(attrCol.Value(j))
		if !ok {
			t.UnknownValues++
			continue
		}
		bs.fitBits = append(bs.fitBits, uint8(idx&1))
		bs.fitData = append(bs.fitData, keyData[keyOffs[j]:keyOffs[j+1]]...)
		bs.fitOffs = append(bs.fitOffs, int32(len(bs.fitData)))
	}

	d2 := digests(&bs.d2, len(bs.fitBits))
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		hashStart = time.Now()
	}
	s.kern2.HashColumn(bs.fitData, bs.fitOffs, d2)
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		bs.hashNanos += int64(time.Since(hashStart))
	}
	bw := uint64(s.bw)
	for i, bit := range bs.fitBits {
		pos := int(d2[i].Mod(bw))
		if bit == ecc.One {
			t.Votes[pos].Ones++
		} else {
			t.Votes[pos].Zeros++
		}
		t.Last[pos] = bit
	}
	return nil
}

// EmbedColumns embeds rows [lo, hi) of r, which must lie inside one of
// its stored blocks, accumulating into cs — the batched form of the
// tuple-at-a-time embedding walk: fitness digests in one kernel call
// over the key column's arena bytes, the in-order fitness walk staging
// the embeddable keys, their position digests in a second kernel call,
// then the value rewrites applied in row order (quality gating,
// alteration counters and the OnAlter hook all fire in the same order as
// the sequential pass). When Options.SkipRow is set the walk stays fully
// interleaved per row instead — the ledger hook may read state that
// OnAlter or the assessor writes for earlier rows, so batching the
// ledger decisions ahead of the rewrites would change what it observes;
// only the fitness digests (pure functions of the keys) stay batched
// there.
//
// The same concurrency rules as EmbedRange apply; bs is per goroutine,
// and nil uses a throwaway scratch.
func (e *Embedder) EmbedColumns(r *relation.Relation, lo, hi int, cs *ChunkStats, bs *BlockScratch) error {
	cs.Bandwidth = e.bw
	if cs.Touched == nil {
		cs.Touched = make([]bool, e.bw)
	}
	if lo < 0 || hi > r.Len() || lo > hi ||
		(lo < hi && lo/relation.BlockRows != (hi-1)/relation.BlockRows) {
		return fmt.Errorf("mark: row range [%d, %d) is not inside one stored block (N=%d)", lo, hi, r.Len())
	}
	if lo == hi {
		return nil
	}
	if bs == nil {
		bs = &BlockScratch{}
	}
	blk := r.Block(lo / relation.BlockRows)
	first := lo % relation.BlockRows
	n := hi - lo
	keyData, keyOffs := blk.Col(e.keyCol).Raw()
	keyOffs = keyOffs[first : first+n+1]
	d1 := digests(&bs.d1, n)
	e.kern1.HashColumn(keyData, keyOffs, d1)
	cs.Tuples += n
	opts := &e.opts
	bw := uint64(e.bw)

	if opts.SkipRow != nil {
		// Ledger-gated walk: sequential-identical hook interleaving.
		var d2 [1]keyhash.Digest
		for j := 0; j < n; j++ {
			if !keyhash.Fit(d1[j], opts.E) {
				continue
			}
			cs.Fit++
			if opts.SkipRow(lo + j) {
				cs.SkippedLedger++
				continue
			}
			e.kern2.HashColumn(keyData, keyOffs[j:j+2], d2[:])
			if err := e.embedRow(r, blk, first+j, lo+j, d1[j], int(d2[0].Mod(bw)), cs); err != nil {
				return err
			}
		}
		return nil
	}

	bs.stageColumns()
	for j := 0; j < n; j++ {
		if !keyhash.Fit(d1[j], opts.E) {
			continue
		}
		cs.Fit++
		bs.fitData = append(bs.fitData, keyData[keyOffs[j]:keyOffs[j+1]]...)
		bs.fitOffs = append(bs.fitOffs, int32(len(bs.fitData)))
	}
	d2 := digests(&bs.d2, len(bs.fitOffs)-1)
	e.kern2.HashColumn(bs.fitData, bs.fitOffs, d2)
	i := 0
	for j := 0; j < n; j++ {
		if !keyhash.Fit(d1[j], opts.E) {
			continue
		}
		if err := e.embedRow(r, blk, first+j, lo+j, d1[j], int(d2[i].Mod(bw)), cs); err != nil {
			return err
		}
		i++
	}
	return nil
}

// embedRow applies one fit, non-skipped row's rewrite: derive the value
// index from the fitness digest and the wm_data bit at pos, rewrite
// through the quality gate, count, and fire OnAlter — the shared back
// half of both EmbedColumns walks. row is the relation row, j its index
// in blk.
func (e *Embedder) embedRow(r *relation.Relation, blk *relation.Block, j, row int, d1 keyhash.Digest, pos int, cs *ChunkStats) error {
	opts := &e.opts
	bit := uint64(e.wmData[pos])
	// Value-index selection: an independent digest word drives the
	// pseudorandom pair choice so the mod-e fitness constraint on
	// word 0 cannot bias it (DESIGN.md clarification 1).
	idx := keyhash.PairIndex(d1.Uint64At(1), e.dom.Size(), bit)
	newVal := e.dom.Value(idx)
	if cur, ok := e.dom.IndexBytes(blk.Value(j, e.attrCol)); ok && cur == idx {
		cs.Unchanged++
		cs.Touched[pos] = true
		return nil
	}
	if opts.Assessor != nil {
		if aerr := opts.Assessor.Apply(r, row, opts.Attr, newVal); aerr != nil {
			var verr *quality.ViolationError
			if errors.As(aerr, &verr) {
				cs.SkippedQuality++
				return nil
			}
			return aerr
		}
	} else {
		if serr := r.SetValue(row, opts.Attr, newVal); serr != nil {
			return serr
		}
	}
	cs.Altered++
	cs.Touched[pos] = true
	if opts.OnAlter != nil {
		opts.OnAlter(row)
	}
	return nil
}
