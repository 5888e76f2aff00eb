package pipeline

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/mark"
	"repro/internal/relation"
)

// The columnar streaming engine behind ScanMany. The reader goroutine
// fills pooled columnar blocks straight from the input bytes (no per-row
// tuples, no per-field strings), groups them into chunk-sized jobs, and
// the worker pool votes over each block's arena bytes through
// Scanner.ScanColumns. Everything cycles: blocks return to the relation
// block pool after scanning, per-chunk tally groups and job shells
// return to free lists after collection, and each worker keeps one
// BlockScratch for its lifetime — steady state performs zero allocations
// per row. Tallies merge in stream order, so results (including
// LastWriteWins) are bit-identical to the materialized pass
// (mark.Detect, pipeline.Detect) over the same rows.

// blockJob is one group of columnar blocks travelling through the pool,
// plus the rendezvous channel its per-scanner tallies come back on.
type blockJob struct {
	blks []*relation.Block
	res  chan blockTallies
}

type blockTallies struct {
	parts []*mark.Tally
	err   error
}

// scanManyBlocks drives every scanner over a single pass of src,
// accumulating into totals (one per scanner, in scanner order). Tallies
// merge in stream order, rows buffered when a read error hits are
// discarded, and a cancelled ctx stops the reader between blocks.
func scanManyBlocks(ctx context.Context, src relation.BlockReader, scanners []*mark.Scanner, totals []*mark.Tally, cfg Config) ([]*mark.Tally, error) {
	workers := cfg.workers()
	blockRows := cfg.blockRows()
	groupBlocks := max(cfg.streamChunkRows()/blockRows, 1)

	jobs := make(chan *blockJob, workers)
	ordered := make(chan *blockJob, workers)
	freeJobs := make(chan *blockJob, 2*workers)
	freeParts := make(chan []*mark.Tally, 2*workers)
	stop := make(chan struct{})
	var stopOnce sync.Once

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
			var bs mark.BlockScratch // one scratch per worker, reused across jobs
			if cfg.Phases != nil {
				bs.EnableHashTiming()
			}
			for job := range jobs {
				var res blockTallies
				if err := ctx.Err(); err != nil {
					res.err = err
				} else if cfg.Phases == nil {
					res.parts, res.err = scanBlockGroup(ctx, scanners, job.blks, &bs, freeParts, cfg)
				} else {
					// Phase clocks at job granularity: the scratch meters
					// kernel time, the remainder of the scan elapsed is the
					// fitness/vote walk.
					start := time.Now()
					res.parts, res.err = scanBlockGroup(ctx, scanners, job.blks, &bs, freeParts, cfg)
					elapsed := time.Since(start)
					hash := time.Duration(bs.HashNanos())
					cfg.Phases.AddHash(hash)
					cfg.Phases.AddVote(elapsed - hash)
				}
				for _, blk := range job.blks {
					relation.PutBlock(blk)
				}
				job.blks = job.blks[:0]
				job.res <- res
			}
		}()
	}

	var readErr error
	go func() {
		defer close(jobs)
		defer close(ordered)
		getJob := func() *blockJob {
			select {
			case j := <-freeJobs:
				return j
			default:
				return &blockJob{res: make(chan blockTallies, 1)}
			}
		}
		putBlocks := func(blks []*relation.Block) {
			for _, blk := range blks {
				relation.PutBlock(blk)
			}
		}
		job := getJob()
		defer func() { putBlocks(job.blks) }()
		dispatch := func() bool {
			select {
			case <-stop:
				return false
			case jobs <- job:
			}
			ordered <- job
			job = getJob()
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
			blk := relation.GetBlock(src.Schema())
			var readStart time.Time
			if cfg.Phases != nil {
				readStart = time.Now()
			}
			n, err := src.ReadBlock(blk, blockRows)
			if cfg.Phases != nil {
				cfg.Phases.AddIngest(time.Since(readStart))
			}
			if err == io.EOF {
				relation.PutBlock(blk)
				break
			}
			if err != nil {
				// Discard the buffered group: the whole call errors out
				// anyway.
				relation.PutBlock(blk)
				readErr = err
				return
			}
			if n == 0 {
				relation.PutBlock(blk)
				continue
			}
			job.blks = append(job.blks, blk)
			if len(job.blks) >= groupBlocks {
				if !dispatch() {
					return
				}
			}
		}
		if len(job.blks) > 0 {
			dispatch()
		}
	}()

	var firstErr error
	for job := range ordered {
		r := <-job.res
		if firstErr == nil {
			if r.err != nil {
				firstErr = r.err
				stopOnce.Do(func() { close(stop) })
			} else {
				var mergeStart time.Time
				if cfg.Phases != nil {
					mergeStart = time.Now()
				}
				for i := range totals {
					totals[i].Merge(r.parts[i])
				}
				if cfg.Phases != nil {
					cfg.Phases.AddMerge(time.Since(mergeStart))
				}
			}
		}
		if r.parts != nil {
			select {
			case freeParts <- r.parts:
			default:
			}
		}
		select {
		case freeJobs <- job:
		default:
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if readErr != nil && firstErr == nil {
		firstErr = readErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return totals, nil
}

// scanBlockGroup sweeps every scanner over one group of blocks,
// certificate loop inside the block loop, into a recycled tally group.
func scanBlockGroup(ctx context.Context, scanners []*mark.Scanner, blks []*relation.Block, bs *mark.BlockScratch, freeParts chan []*mark.Tally, cfg Config) ([]*mark.Tally, error) {
	var parts []*mark.Tally
	select {
	case parts = <-freeParts:
		for _, t := range parts {
			t.Reset()
		}
	default:
		parts = make([]*mark.Tally, len(scanners))
		for i, sc := range scanners {
			parts[i] = sc.NewTally()
		}
	}
	for _, blk := range blks {
		if err := ctx.Err(); err != nil {
			return parts, err
		}
		for i, sc := range scanners {
			if err := sc.ScanColumns(blk, parts[i], bs); err != nil {
				return parts, err
			}
		}
		cfg.report(blk.Rows())
	}
	return parts, nil
}
