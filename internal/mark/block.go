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
// precomputed digests. ScanBlock, ScanColumns and EmbedBlock are
// bit-identical to tuple-at-a-time loops — the property and fuzz tests
// drive them against a per-tuple reference (ScanTuple, kept in the test
// files as the semantic definition of one tuple's work) over random
// block shapes.
//
// BlockScratch is where the batching pays twice: the key column is
// extracted once per block no matter how many certificates scan it, and
// the per-block digest memo (keyhash.BlockMemo) hashes each key value
// once per lane — certificates sharing an owner secret, and therefore a
// fitness key, replay each other's digests instead of rehashing.

// DefaultBlockRows is the block size Scan, EmbedRange and the pipeline
// default to: large enough to amortize a kernel call, small enough that
// a block's keys and digests stay cache-resident while every
// certificate of a batch audit sweeps it.
const DefaultBlockRows = 512

// keyColCache is one extracted key column of the current block.
type keyColCache struct {
	col  int
	keys []string
}

// BlockScratch carries the reusable state of a block-at-a-time pass:
// extracted key columns, the per-block digest memo, and the voting-row
// staging arrays. One scratch serves any number of scanners and
// embedders — sharing it across certificates is what enables key-column
// and digest reuse — but it is mutable state: one scratch per goroutine,
// never shared concurrently. The zero value is ready to use.
type BlockScratch struct {
	rel      *relation.Relation
	lo, hi   int
	cols     []keyColCache
	freeKeys [][]string // retired key-column backing arrays, for reuse
	memo     keyhash.BlockMemo

	// columnar block identity (ScanColumns): the pooled Block pointer
	// plus its generation counter, because pooling reuses pointers.
	blk    *relation.Block
	blkGen uint64

	// staging for the current ScanBlock/EmbedBlock call
	fitRows []int32
	fitBits []uint8
	fitKeys []string
	d2      []keyhash.Digest

	// columnar staging for ScanColumns: the fit keys packed as one
	// contiguous byte run with offsets, feeding Kernel.HashColumn
	// without materializing strings.
	fitData []byte
	fitOffs []int32

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

// setBlock points the scratch at rows [lo, hi) of r, invalidating the
// extracted columns and the digest memo when the block changed. Retired
// key slices are recycled into the next block's extractions.
func (bs *BlockScratch) setBlock(r *relation.Relation, lo, hi int) {
	if bs.rel == r && bs.blk == nil && bs.lo == lo && bs.hi == hi {
		return
	}
	bs.rel, bs.lo, bs.hi = r, lo, hi
	bs.blk, bs.blkGen = nil, 0
	for i := range bs.cols {
		bs.freeKeys = append(bs.freeKeys, bs.cols[i].keys[:0])
	}
	bs.cols = bs.cols[:0]
	bs.memo.Reset()
}

// keyColumn returns the block's key values for col, extracting them on
// first use and replaying them for every later caller of the same block.
func (bs *BlockScratch) keyColumn(col int) []string {
	for i := range bs.cols {
		if bs.cols[i].col == col {
			return bs.cols[i].keys
		}
	}
	var keys []string
	if n := len(bs.freeKeys); n > 0 {
		keys = bs.freeKeys[n-1]
		bs.freeKeys = bs.freeKeys[:n-1]
	}
	if cap(keys) < bs.hi-bs.lo {
		keys = make([]string, 0, bs.hi-bs.lo)
	}
	for j := bs.lo; j < bs.hi; j++ {
		keys = append(keys, bs.rel.Tuple(j)[col])
	}
	bs.cols = append(bs.cols, keyColCache{col: col, keys: keys})
	return keys
}

// stage resets the voting-row staging arrays for a fresh block walk.
func (bs *BlockScratch) stage() {
	bs.fitRows = bs.fitRows[:0]
	bs.fitBits = bs.fitBits[:0]
	bs.fitKeys = bs.fitKeys[:0]
}

// d2For sizes the position-digest scratch for n voting rows.
func (bs *BlockScratch) d2For(n int) []keyhash.Digest {
	if cap(bs.d2) < n {
		bs.d2 = make([]keyhash.Digest, n)
	}
	return bs.d2[:n]
}

// checkRange validates a block range against a relation.
func checkRange(r *relation.Relation, lo, hi int) error {
	if lo < 0 || hi > r.Len() || lo > hi {
		return fmt.Errorf("mark: row range [%d, %d) out of bounds (N=%d)", lo, hi, r.Len())
	}
	return nil
}

// ScanBlock accumulates the votes of rows [lo, hi) of r into t — the
// batched form of the per-tuple vote loop, in three passes over the block:
// one kernel call for the fitness digests (replayed from the scratch
// memo when another scanner of the same lane got there first), a fitness
// and domain walk that stages the voting rows, one kernel call for their
// position digests, and the vote tally in row order. Every counter and
// vote, including the order-sensitive Last column, lands exactly as the
// tuple-at-a-time pass would have it.
//
// bs may be shared across scanners (that is the point) but not across
// goroutines; nil uses a throwaway scratch.
func (s *Scanner) ScanBlock(r *relation.Relation, lo, hi int, t *Tally, bs *BlockScratch) error {
	if err := checkRange(r, lo, hi); err != nil {
		return err
	}
	if bs == nil {
		bs = &BlockScratch{}
	}
	bs.setBlock(r, lo, hi)
	keys := bs.keyColumn(s.keyCol)
	d1 := bs.memo.Lane(s.keyCol, s.k1s, s.kern1, keys)

	bs.stage()
	t.Rows += hi - lo
	for j, keyVal := range keys {
		if !keyhash.Fit(d1[j], s.opts.E) {
			continue
		}
		t.Fit++
		idx, ok := s.dom.Index(r.Tuple(lo + j)[s.attrCol])
		if !ok {
			t.UnknownValues++
			continue
		}
		bs.fitRows = append(bs.fitRows, int32(j))
		bs.fitBits = append(bs.fitBits, uint8(idx&1))
		bs.fitKeys = append(bs.fitKeys, keyVal)
	}

	d2 := bs.d2For(len(bs.fitKeys))
	s.kern2.HashMany(bs.fitKeys, d2)
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

// setColumnBlock points the scratch at a columnar block, invalidating
// the memo when the block identity changed. Pooled blocks reuse
// pointers, so identity is the (pointer, generation) pair; a scratch
// that last saw a row-range block is invalidated unconditionally.
func (bs *BlockScratch) setColumnBlock(blk *relation.Block) {
	if bs.blk == blk && bs.blkGen == blk.Gen() {
		return
	}
	bs.blk, bs.blkGen = blk, blk.Gen()
	bs.rel, bs.lo, bs.hi = nil, 0, 0
	for i := range bs.cols {
		bs.freeKeys = append(bs.freeKeys, bs.cols[i].keys[:0])
	}
	bs.cols = bs.cols[:0]
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

// ScanColumns accumulates the votes of a columnar block into t — the
// zero-allocation form of ScanBlock: the key column's arena bytes feed
// Kernel.HashColumn directly (replayed from the scratch memo when
// another scanner of the same lane got there first), the fitness and
// domain walk stages the voting keys as one contiguous byte run, and a
// second HashColumn call derives their positions. Every counter and
// vote, including the order-sensitive Last column, lands exactly as
// ScanBlock over the same rows would have it.
//
// bs follows the ScanBlock sharing rules; nil uses a throwaway scratch.
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

	d2 := bs.d2For(len(bs.fitBits))
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

// EmbedBlock embeds rows [lo, hi) of r, accumulating into cs — the
// batched form of the tuple-at-a-time embedding walk: fitness digests
// in one kernel call, the in-order fitness walk staging the embeddable
// rows, their position digests in a second kernel call, then the value
// rewrites applied in row order (quality gating, alteration counters
// and the OnAlter hook all fire in the same order as the sequential
// pass). When Options.SkipRow is set the walk stays fully interleaved
// per row instead — the ledger hook may read state that OnAlter or the
// assessor writes for earlier rows, so batching the ledger decisions
// ahead of the rewrites would change what it observes; only the fitness
// digests (pure functions of the keys) stay batched there.
//
// The same concurrency rules as EmbedRange apply; bs follows the
// ScanBlock sharing rules.
func (e *Embedder) EmbedBlock(r *relation.Relation, lo, hi int, cs *ChunkStats, bs *BlockScratch) error {
	cs.Bandwidth = e.bw
	if cs.Touched == nil {
		cs.Touched = make([]bool, e.bw)
	}
	if err := checkRange(r, lo, hi); err != nil {
		return err
	}
	if bs == nil {
		bs = &BlockScratch{}
	}
	cs.Tuples += hi - lo
	bs.setBlock(r, lo, hi)
	keys := bs.keyColumn(e.keyCol)
	d1 := bs.memo.Lane(e.keyCol, e.k1s, e.kern1, keys)
	opts := &e.opts

	if opts.SkipRow != nil {
		// Ledger-gated walk: sequential-identical hook interleaving.
		var d2 [1]keyhash.Digest
		for j := range keys {
			if !keyhash.Fit(d1[j], opts.E) {
				continue
			}
			cs.Fit++
			if opts.SkipRow(lo + j) {
				cs.SkippedLedger++
				continue
			}
			e.kern2.HashMany(keys[j:j+1], d2[:])
			if err := e.embedRow(r, lo+j, d1[j], int(d2[0].Mod(uint64(e.bw))), cs); err != nil {
				return err
			}
		}
		return nil
	}

	bs.stage()
	for j, keyVal := range keys {
		if !keyhash.Fit(d1[j], opts.E) {
			continue
		}
		cs.Fit++
		bs.fitRows = append(bs.fitRows, int32(j))
		bs.fitKeys = append(bs.fitKeys, keyVal)
	}

	d2 := bs.d2For(len(bs.fitKeys))
	e.kern2.HashMany(bs.fitKeys, d2)
	for i, j32 := range bs.fitRows {
		j := int(j32)
		if err := e.embedRow(r, lo+j, d1[j], int(d2[i].Mod(uint64(e.bw))), cs); err != nil {
			return err
		}
	}
	return nil
}

// embedRow applies one fit, non-skipped row's rewrite: derive the value
// index from the fitness digest and the wm_data bit at pos, rewrite
// through the quality gate, count, and fire OnAlter — the shared back
// half of both EmbedBlock walks.
func (e *Embedder) embedRow(r *relation.Relation, row int, d1 keyhash.Digest, pos int, cs *ChunkStats) error {
	opts := &e.opts
	bit := uint64(e.wmData[pos])
	// Value-index selection: an independent digest word drives the
	// pseudorandom pair choice so the mod-e fitness constraint on
	// word 0 cannot bias it (DESIGN.md clarification 1).
	idx := keyhash.PairIndex(d1.Uint64At(1), e.dom.Size(), bit)
	newVal := e.dom.Value(idx)
	if r.Tuple(row)[e.attrCol] == newVal {
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
