package mark

import (
	"errors"
	"fmt"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
)

// Chunked embedding and detection hooks. Every per-tuple decision in the
// codec — fitness, bit position, value index — depends only on the tuple's
// own key, so a relation can be partitioned into row ranges and processed
// independently as long as the global parameters (|wm_data|, the domain,
// the encoded wm_data) are fixed once up front. Embedder and Scanner fix
// them; EmbedRange/Scan process a range; the merge operations recombine
// partial results into exactly what the sequential pass would have
// produced. Embed and Detect are themselves implemented as the one-chunk
// special case, so the sequential and chunked paths cannot drift apart.
//
// internal/pipeline builds its worker pool on these hooks.

// Embedder is a prepared embedding pass: options resolved, bandwidth
// fixed, wm_data encoded. It is immutable after construction and safe for
// concurrent use by multiple goroutines calling EmbedRange on disjoint
// row ranges of the same relation.
type Embedder struct {
	opts         Options
	k1s          string // opts.K1 as a string: the memo lane key, converted once
	keyCol       int
	attrCol      int
	dom          *relation.Domain
	bw           int
	wmData       ecc.Bits
	kern1, kern2 keyhash.Kernel
}

// newEmbedder assembles the prepared pass once parameters are validated.
func newEmbedder(opts Options, keyCol, attrCol int, dom *relation.Domain, bw int, wmData ecc.Bits) (*Embedder, error) {
	kern1, err := opts.K1.NewKernel(opts.HashKernel)
	if err != nil {
		return nil, fmt.Errorf("mark: k1: %w", err)
	}
	kern2, err := opts.K2.NewKernel(opts.HashKernel)
	if err != nil {
		return nil, fmt.Errorf("mark: k2: %w", err)
	}
	return &Embedder{
		opts:    opts,
		k1s:     string(opts.K1),
		keyCol:  keyCol,
		attrCol: attrCol,
		dom:     dom,
		bw:      bw,
		wmData:  wmData,
		kern1:   kern1,
		kern2:   kern2,
	}, nil
}

// NewEmbedder validates options against r and prepares an embedding pass
// over its rows. The bandwidth |wm_data| is fixed from r.Len() (or
// Options.BandwidthOverride) at construction time.
func NewEmbedder(r *relation.Relation, wm ecc.Bits, opts Options) (*Embedder, error) {
	keyCol, attrCol, dom, err := opts.resolve(r, true)
	if err != nil {
		return nil, err
	}
	if len(wm) == 0 {
		return nil, errors.New("mark: empty watermark")
	}
	n := r.Len()
	bw := opts.bandwidth(n)
	if bw < len(wm) {
		return nil, fmt.Errorf("%w: |wm|=%d, N/e=%d (N=%d, e=%d)",
			ErrInsufficientBandwidth, len(wm), bw, n, opts.E)
	}
	wmData, err := opts.code().Encode(wm, bw)
	if err != nil {
		return nil, err
	}
	return newEmbedder(opts, keyCol, attrCol, dom, bw, wmData)
}

// ChunkStats is the partial result of embedding one row range: the usual
// statistics plus the set of wm_data positions the range touched, which
// MergeChunks needs to count distinct positions across ranges.
type ChunkStats struct {
	EmbedStats
	// Touched[pos] is true when some fit tuple of the range embedded
	// wm_data position pos. Length is the pass bandwidth.
	Touched []bool
}

// EmbedRange embeds rows [lo, hi) of r, walking the range in
// DefaultBlockRows-sized blocks through EmbedBlock (one scratch for the
// whole call, so memory stays bounded on arbitrarily large ranges). It
// writes only the watermarked attribute of rows inside the range, so
// concurrent calls on disjoint ranges of the same relation are safe
// provided (a) Options.Assessor, Options.SkipRow and Options.OnAlter
// are either nil or themselves concurrency-safe (the quality assessor's
// shared alteration budget is order-dependent), and (b) the watermarked
// attribute is NOT the relation's primary key — rewriting key values
// mutates the shared key index. internal/pipeline falls back to a
// sequential pass in both cases.
func (e *Embedder) EmbedRange(r *relation.Relation, lo, hi int) (ChunkStats, error) {
	cs := ChunkStats{Touched: make([]bool, e.bw)}
	cs.Bandwidth = e.bw
	if err := checkRange(r, lo, hi); err != nil {
		return cs, err
	}
	var bs BlockScratch
	for blockLo := lo; ; blockLo += DefaultBlockRows {
		blockHi := min(blockLo+DefaultBlockRows, hi)
		if err := e.EmbedBlock(r, blockLo, blockHi, &cs, &bs); err != nil {
			return cs, err
		}
		if blockHi == hi {
			return cs, nil
		}
	}
}

// Add folds another range's result into c (order-independent): counters
// sum, touched sets union. Both chunks must come from the same pass.
func (c *ChunkStats) Add(o ChunkStats) {
	c.Tuples += o.Tuples
	c.Fit += o.Fit
	c.Altered += o.Altered
	c.Unchanged += o.Unchanged
	c.SkippedLedger += o.SkippedLedger
	c.SkippedQuality += o.SkippedQuality
	c.Bandwidth = o.Bandwidth
	if c.Touched == nil {
		c.Touched = make([]bool, len(o.Touched))
	}
	for pos, hit := range o.Touched {
		if hit {
			c.Touched[pos] = true
		}
	}
}

// MergeChunks combines per-range embedding results (in any order) into the
// statistics the equivalent sequential pass would report.
func MergeChunks(chunks ...ChunkStats) EmbedStats {
	var agg ChunkStats
	for _, c := range chunks {
		agg.Add(c)
	}
	out := agg.EmbedStats
	for _, hit := range agg.Touched {
		if hit {
			out.PositionsTouched++
		}
	}
	return out
}

// Scanner is a prepared detection pass: options resolved, bandwidth fixed,
// keyed-hash contexts built. It is immutable after construction and safe
// for concurrent use by multiple goroutines scanning disjoint row ranges
// into disjoint tallies (merged afterwards in scan order, see Merge).
type Scanner struct {
	opts         Options
	k1s          string // opts.K1 as a string: the memo lane key, converted once
	keyCol       int
	attrCol      int
	dom          *relation.Domain
	bw           int
	wmLen        int
	kern1, kern2 keyhash.Kernel
}

// NewScanner validates options against r and prepares a detection pass.
// The bandwidth is fixed from r.Len() (or Options.BandwidthOverride) at
// construction time.
func NewScanner(r *relation.Relation, wmLen int, opts Options) (*Scanner, error) {
	keyCol, attrCol, dom, err := opts.resolve(r, true)
	if err != nil {
		return nil, err
	}
	return newScanner(keyCol, attrCol, dom, r.Len(), wmLen, opts)
}

// NewStreamScanner prepares a detection pass for data arriving as a row
// stream. It requires opts.Domain and opts.BandwidthOverride, because
// neither the value catalog nor the stream length can be derived up
// front.
func NewStreamScanner(schema *relation.Schema, wmLen int, opts Options) (*Scanner, error) {
	keyCol, attrCol, dom, err := opts.resolveSchema(schema, true)
	if err != nil {
		return nil, err
	}
	if opts.BandwidthOverride <= 0 {
		return nil, errors.New("mark: streaming detect requires BandwidthOverride (stream length is unknown)")
	}
	return newScanner(keyCol, attrCol, dom, 0, wmLen, opts)
}

func newScanner(keyCol, attrCol int, dom *relation.Domain, n, wmLen int, opts Options) (*Scanner, error) {
	if wmLen <= 0 {
		return nil, errors.New("mark: non-positive watermark length")
	}
	bw := opts.bandwidth(n)
	if bw < wmLen {
		return nil, fmt.Errorf("%w: |wm|=%d, N/e=%d (N=%d, e=%d)",
			ErrInsufficientBandwidth, wmLen, bw, n, opts.E)
	}
	kern1, err := opts.K1.NewKernel(opts.HashKernel)
	if err != nil {
		return nil, fmt.Errorf("mark: k1: %w", err)
	}
	kern2, err := opts.K2.NewKernel(opts.HashKernel)
	if err != nil {
		return nil, fmt.Errorf("mark: k2: %w", err)
	}
	return &Scanner{
		opts:    opts,
		k1s:     string(opts.K1),
		keyCol:  keyCol,
		attrCol: attrCol,
		dom:     dom,
		bw:      bw,
		wmLen:   wmLen,
		kern1:   kern1,
		kern2:   kern2,
	}, nil
}

// Bandwidth returns the fixed |wm_data| of this pass.
func (s *Scanner) Bandwidth() int { return s.bw }

// Tally is the partial detection state accumulated over one or more row
// ranges: per-position vote counts, the last vote seen in scan order
// (for the LastWriteWins ablation), and the scan counters.
type Tally struct {
	// Rows is the number of tuples scanned.
	Rows int
	// Fit is the number of tuples passing the fitness criterion.
	Fit int
	// UnknownValues counts fit tuples whose value fell outside the domain.
	UnknownValues int
	// Votes holds per-position 0/1 vote counts.
	Votes []ecc.VoteTally
	// Last holds the last vote per position in scan order (ecc.Erased
	// where the range cast no vote).
	Last []uint8
}

// NewTally returns an empty tally sized for the scanner's bandwidth.
func (s *Scanner) NewTally() *Tally {
	t := &Tally{
		Votes: make([]ecc.VoteTally, s.bw),
		Last:  make([]uint8, s.bw),
	}
	for i := range t.Last {
		t.Last[i] = ecc.Erased
	}
	return t
}

// Reset clears t for reuse, keeping its bandwidth-sized arrays — the
// pooling hook the streaming fan-out uses to recycle per-chunk tallies.
func (t *Tally) Reset() {
	t.Rows, t.Fit, t.UnknownValues = 0, 0, 0
	clear(t.Votes)
	for i := range t.Last {
		t.Last[i] = ecc.Erased
	}
}

// Scan reads rows [lo, hi) of r and accumulates their votes into t,
// walking the range in DefaultBlockRows-sized blocks through ScanBlock
// (one scratch for the whole call). The votes are bit-identical to a
// tuple-at-a-time pass over the same rows; the relation is never modified.
// Concurrent Scan calls must use distinct tallies; merge them afterwards
// with Tally.Merge.
func (s *Scanner) Scan(r *relation.Relation, lo, hi int, t *Tally) error {
	if err := checkRange(r, lo, hi); err != nil {
		return err
	}
	var bs BlockScratch
	for blockLo := lo; ; blockLo += DefaultBlockRows {
		blockHi := min(blockLo+DefaultBlockRows, hi)
		if err := s.ScanBlock(r, blockLo, blockHi, t, &bs); err != nil {
			return err
		}
		if blockHi == hi {
			return nil
		}
	}
}

// Merge folds a tally covering a LATER row range into t. Vote counts are
// commutative; the Last column is not — merge tallies in scan order so
// that LastWriteWins aggregation reproduces the sequential pass exactly.
func (t *Tally) Merge(later *Tally) {
	t.Rows += later.Rows
	t.Fit += later.Fit
	t.UnknownValues += later.UnknownValues
	for i := range t.Votes {
		t.Votes[i].Zeros += later.Votes[i].Zeros
		t.Votes[i].Ones += later.Votes[i].Ones
		if later.Last[i] != ecc.Erased {
			t.Last[i] = later.Last[i]
		}
	}
}

// Report aggregates a completed tally per the configured vote-aggregation
// policy and ECC-decodes the result — the back half of Figure 2(a).
func (s *Scanner) Report(t *Tally) (DetectReport, error) {
	rep := DetectReport{
		Tuples:        t.Rows,
		Fit:           t.Fit,
		UnknownValues: t.UnknownValues,
		Bandwidth:     s.bw,
	}
	wmData := make(ecc.Bits, s.bw)
	marginSum := 0.0
	for i := range wmData {
		switch s.opts.Aggregation {
		case LastWriteWins:
			wmData[i] = t.Last[i]
		default:
			if t.Votes[i].Ones == 0 && t.Votes[i].Zeros == 0 {
				wmData[i] = ecc.Erased
			} else {
				wmData[i] = t.Votes[i].Winner(ecc.Zero)
			}
		}
		if wmData[i] != ecc.Erased {
			rep.PositionsFilled++
			marginSum += t.Votes[i].Margin()
		}
		if wmData[i] == ecc.Erased && s.opts.ZeroUnfilled {
			wmData[i] = ecc.Zero // paper-literal zero-initialised wm_data
		}
	}
	if rep.PositionsFilled > 0 {
		rep.MeanMargin = marginSum / float64(rep.PositionsFilled)
	}

	wm, err := s.opts.code().Decode(wmData, s.wmLen)
	if err != nil {
		return rep, err
	}
	rep.WM = wm
	return rep, nil
}
