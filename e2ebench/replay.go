package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mark"
	otrace "repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// replayer re-runs finished jobs through the layers' public functions,
// in the order the server runs them, one span per call. Each replay must
// reproduce the job's result exactly, so the spans are known to time
// the same work the server did.
type replayer struct {
	fx      *fixture
	rec     *recorder
	workers int // the server's scan parallelism (its Config.Workers default)
	cache   *core.ScannerCache
	// coord is the replay coordinator of cluster workloads: it dispatches
	// to the run's real workers through tt, which times every shard RPC.
	coord *cluster.Coordinator
	tt    *timedTransport
	// dispatch and execute pool every traced job's per-shard times (ms).
	dispatch, execute []float64
}

func newReplayer(fx *fixture, rec *recorder) (*replayer, error) {
	rp := &replayer{fx: fx, rec: rec, workers: runtime.NumCPU(), cache: core.NewScannerCache(0)}
	if len(fx.env.workers) > 0 {
		rp.tt = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
		rp.coord = cluster.NewCoordinator(cluster.Config{}, cluster.WithHTTPClient(&http.Client{Transport: rp.tt}))
	}
	// Warm the replay's scanner cache, as the server's is after its
	// warm-up job.
	_, recs, err := catalog(fx.env.front.store)
	if err != nil {
		return nil, err
	}
	schema, err := relation.ParseSchemaSpec(fx.in.schema)
	if err != nil {
		return nil, err
	}
	core.PrepareBatch(recs, schema, core.BatchOptions{Cache: rp.cache})
	return rp, nil
}

func (rp *replayer) close() {
	if rp.tt != nil {
		rp.tt.base.CloseIdleConnections()
	}
}

// observe records a traced job: its client-side and job-resource spans,
// the program's own phase clocks, and a replay of its inputs.
func (rp *replayer) observe(ctx context.Context, r *jobResult, sm samples) error {
	var j api.Job
	if err := json.Unmarshal(r.body, &j); err != nil {
		return err
	}
	if j.StartedAt == nil || j.FinishedAt == nil {
		return errors.New("done job without start/finish timestamps")
	}
	id := r.id
	root := rp.rec.add(span{Trace: id, Name: "job", Parent: -1, Start: r.start, End: r.end})
	rp.rec.add(span{Trace: id, Name: "server.submit", Parent: root, Start: r.start, End: r.accepted})
	rp.rec.add(span{Trace: id, Name: "jobs.queue", Parent: root, Start: j.CreatedAt, End: *j.StartedAt})
	rp.rec.add(span{Trace: id, Name: "jobs.run", Parent: root, Start: *j.StartedAt, End: *j.FinishedAt})
	rp.rec.add(span{Trace: id, Name: "server.result", Parent: root, Start: *j.FinishedAt, End: r.end})
	run := j.FinishedAt.Sub(*j.StartedAt)
	sm.add("trace.job_ms", ms(r.latency()))
	sm.add("server.submit_ms", ms(r.accepted.Sub(r.start)))
	sm.add("jobs.queue_wait_ms", ms(j.StartedAt.Sub(j.CreatedAt)))
	sm.add("jobs.run_ms", ms(run))
	sm.add("server.result_ms", ms(r.end.Sub(*j.FinishedAt)))

	prog, err := rp.fx.env.programPhases(ctx, id)
	if err != nil {
		return err
	}
	for name, v := range prog {
		sm.add(name, v)
	}

	replay := rp.rec.add(span{Trace: id, Name: "replay", Parent: -1, Start: time.Now()})
	err = rp.audit(ctx, id, replay, r.reqBody, sm)
	rp.rec.spans[replay].End = time.Now()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	// The replay's on-path spans mirror the steps of job.run; whatever
	// of the run they do not cover is unattributed.
	var path time.Duration
	for _, s := range rp.rec.spans[replay:] {
		if s.OnPath && s.Parent == replay {
			path += s.dur()
		}
	}
	sm.add("trace.unattributed_ms", ms(run-path))
	return nil
}

// audit replays a verify_batch job.
func (rp *replayer) audit(ctx context.Context, id string, parent int, body []byte, sm samples) error {
	rec := rp.rec
	var req api.JobRequest
	i, err := rec.timed(id, "server.decode", parent, false, func() error { return json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	sm.add("server.decode_ms", ms(rec.spans[i].dur()))
	vb := req.VerifyBatch

	var recs []*core.Record
	i, err = rec.timed(id, "store.get", parent, true, func() (err error) {
		_, recs, err = catalog(rp.fx.env.front.store)
		return err
	})
	if err != nil {
		return err
	}
	sm.add("store.get_ms", ms(rec.spans[i].dur()))

	var schema *relation.Schema
	var prep *core.BatchPrep
	i, err = rec.timed(id, "core.prepare", parent, true, func() (err error) {
		if schema, err = relation.ParseSchemaSpec(vb.Schema); err != nil {
			return err
		}
		prep = core.PrepareBatch(recs, schema, core.BatchOptions{Workers: rp.workers, Cache: rp.cache})
		return nil
	})
	if err != nil {
		return err
	}
	sm.add("core.prepare_ms", ms(rec.spans[i].dur()))

	i, err = rec.timed(id, "relation.ingest", parent, false, func() error { return ingest(vb.Data, vb.Format, schema) })
	if err != nil {
		return err
	}
	sm.add("relation.ingest_ms", ms(rec.spans[i].dur()))

	// The single-node scan, with phase clocks. On a cluster workload it
	// is a probe beside the path (the server fans the scan out instead);
	// there it still supplies the hash/vote split.
	clustered := rp.coord != nil
	var tallies []*mark.Tally
	ph := &otrace.Phases{}
	scan := rec.add(span{Trace: id, Name: "pipeline.scan", Parent: parent, Start: time.Now(), OnPath: !clustered})
	src, err := newReader(vb.Data, vb.Format, schema)
	if err == nil {
		tallies, err = pipeline.ScanMany(ctx, src, prep.Scanners(), pipeline.Config{Workers: rp.workers, Phases: ph})
	}
	end := time.Now()
	rec.spans[scan].End = end
	start := rec.spans[scan].Start
	if err != nil {
		return err
	}
	wall := end.Sub(start)
	phases := phaseTimes(ph)
	// Phase clocks are CPU sums across goroutines; as children of the
	// scan span they count at their wall-clock equivalent (CPU over
	// workers), and the remainder is the pipeline's own time.
	var cpu time.Duration
	at := start
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"relation.scan_ingest", phases.ingest}, {"keyhash.hash", phases.hash}, {"mark.vote", phases.vote}, {"mark.merge", phases.merge}} {
		cpu += p.d
		d := p.d / time.Duration(rp.workers)
		rec.add(span{Trace: id, Name: p.name, Parent: scan, Start: at, End: at.Add(d)})
		at = at.Add(d)
	}
	sm.add("pipeline.scan_wall_ms", ms(wall))
	sm.add("pipeline.parallel_eff", float64(cpu)/(float64(rp.workers)*float64(wall)))
	sm.add("relation.scan_ingest_ms", ms(phases.ingest))
	sm.add("keyhash.hash_ms", ms(phases.hash))
	sm.add("mark.vote_ms", ms(phases.vote))
	merge := phases.merge

	if clustered {
		var shardMerge time.Duration
		if tallies, shardMerge, err = rp.clusterScan(ctx, id, parent, vb, schema, prep, sm); err != nil {
			return err
		}
		merge += shardMerge
	}
	sm.add("mark.merge_ms", ms(merge))

	var reports []core.BatchReport
	i, _ = rec.timed(id, "mark.report", parent, true, func() error {
		reports = prep.Reports(tallies)
		return nil
	})
	report := rec.spans[i].dur()
	sm.add("mark.report_ms", ms(report))
	sm.add("trace.keyhash_self_ms", ms(phases.hash/time.Duration(rp.workers)))
	sm.add("trace.mark_self_ms", ms((phases.vote+phases.merge)/time.Duration(rp.workers)+report))

	ref := rp.fx.ref
	for k, out := range reports {
		if out.Err != nil || out.Report.Match != ref.Results[k].Match || out.Report.Detected != ref.Results[k].Detected {
			return fmt.Errorf("replayed certificate %s diverges from the job's result", ref.Results[k].ID)
		}
	}
	return nil
}

// clusterScan replays the distributed scan through the replay
// coordinator, then executes the very same shard requests in-process and
// merges their partial tallies in shard order. It returns the merged
// tallies and the time Tally.Merge took.
func (rp *replayer) clusterScan(ctx context.Context, id string, parent int, vb *api.BatchVerifyRequest, schema *relation.Schema, prep *core.BatchPrep, sm samples) ([]*mark.Tally, time.Duration, error) {
	rec := rp.rec
	for k, wn := range rp.fx.env.workers {
		rp.coord.Register(api.WorkerRegistration{ID: fmt.Sprintf("replay-w%d", k+1), URL: wn.url, Capacity: 1})
	}
	var tallies []*mark.Tally
	i, err := rec.timed(id, "cluster.scan", parent, true, func() error {
		src, err := newReader(vb.Data, vb.Format, schema)
		if err != nil {
			return err
		}
		tallies, err = rp.coord.ScanShards(ctx, src, prep.Scanners(), cluster.ScanJob{
			Records: prep.Records(), Schema: relation.SchemaSpec(schema), Workers: rp.workers,
		})
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	sm.add("cluster.coord_wall_ms", ms(rec.spans[i].dur()))

	calls := rp.tt.take()
	reqs := make([]api.ShardScanRequest, len(calls))
	for k, c := range calls {
		rp.dispatch = append(rp.dispatch, ms(c.end.Sub(c.start)))
		if err := json.Unmarshal(c.body, &reqs[k]); err != nil {
			return nil, 0, err
		}
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].Shard < reqs[b].Shard })
	totals := make([]*mark.Tally, len(prep.Scanners()))
	for k, sc := range prep.Scanners() {
		totals[k] = sc.NewTally()
	}
	var merge time.Duration
	for _, req := range reqs {
		var resp *api.ShardScanResponse
		k, err := rec.timed(id, "cluster.execute", parent, false, func() (err error) {
			resp, err = cluster.ExecuteShard(ctx, req, core.BatchOptions{Workers: 1, Cache: rp.cache})
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		rp.execute = append(rp.execute, ms(rec.spans[k].dur()))
		parts := make([]*mark.Tally, len(resp.Tallies))
		for n, tw := range resp.Tallies {
			if parts[n], err = tw.Tally(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		for n := range totals {
			totals[n].Merge(parts[n])
		}
		merge += time.Since(start)
	}
	for n := range totals {
		if totals[n].Rows != tallies[n].Rows || totals[n].Fit != tallies[n].Fit {
			return nil, 0, errors.New("in-process shard execution diverges from the dispatched scan")
		}
	}
	return tallies, merge, nil
}

// ingest drains the block reader over data — the suspect parse the
// server's scan runs on its reader goroutine.
func ingest(data, format string, schema *relation.Schema) error {
	src, err := newReader(data, format, schema)
	if err != nil {
		return err
	}
	br, ok := src.(relation.BlockReader)
	if !ok {
		return fmt.Errorf("%s reader has no block path", format)
	}
	blk := relation.GetBlock(schema)
	defer relation.PutBlock(blk)
	for {
		if _, err := br.ReadBlock(blk, mark.DefaultBlockRows); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

type phaseSplit struct{ ingest, hash, vote, merge time.Duration }

// phaseTimes reads a Phases accumulator through its only public view:
// the attributes it annotates onto a span.
func phaseTimes(ph *otrace.Phases) phaseSplit {
	r := otrace.New(otrace.Options{SampleRatio: 1})
	_, sp := r.StartServer(context.Background(), "phases", "")
	ph.Annotate(sp)
	sp.End()
	var out phaseSplit
	for _, sd := range r.TraceSpans(sp.Context().TraceID) {
		for _, a := range sd.Attrs {
			ns, _ := strconv.ParseInt(a.Value, 10, 64)
			switch a.Key {
			case "ingest_ns":
				out.ingest = time.Duration(ns)
			case "hash_ns":
				out.hash = time.Duration(ns)
			case "vote_ns":
				out.vote = time.Duration(ns)
			case "merge_ns":
				out.merge = time.Duration(ns)
			}
		}
	}
	return out
}

// shardCall is one timed POST /v2/internal/scan.
type shardCall struct {
	body       []byte
	start, end time.Time
}

// timedTransport times every shard RPC from the moment the request is
// sent until its response body has been read, and keeps each request
// body so the same shard can be executed again in-process.
type timedTransport struct {
	base  *http.Transport
	mu    sync.Mutex
	calls []shardCall
}

// take returns and clears the shard calls recorded so far.
func (t *timedTransport) take() []shardCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls = nil
	return calls
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v2/internal/scan" || req.Body == nil {
		return t.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	out.ContentLength = int64(len(body))
	start := time.Now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.mu.Lock()
		t.calls = append(t.calls, shardCall{body: body, start: start, end: time.Now()})
		t.mu.Unlock()
	}}
	return resp, nil
}

// timedBody calls done once, at the body's EOF or Close.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
