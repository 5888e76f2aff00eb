package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/keyhash"
)

// The traced run. It differs from the end-to-end run in three ways:
//
//   - traced and untraced jobs alternate in equal number, so the
//     tracing overhead is the ratio of their latencies;
//   - traced jobs carry a sampled W3C traceparent, which the servers
//     honor exactly as head sampling at ratio 1 would: the job's own span
//     tree, shard.execute phase clocks included, is read back from GET
//     /v2/jobs/{id}/trace as a cross-check;
//   - after each traced job, never overlapping a timed one, the
//     benchmark replays the job through the layers' public functions
//     (replay.go), one span per call.
//
// Spans live in memory and are written out once, at the end.

// span is one timed interval of the benchmark's own trace. The trace ID
// is the job ID; parent indexes the recorder's span list (-1 = root).
type span struct {
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// OnPath marks spans that mirror a step of the server's job.run, the
	// ones whose self times must add up to the job's run time.
	OnPath bool `json:"on_path,omitempty"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps the benchmark's spans in memory. Spans are recorded
// only between jobs, on one goroutine.
type recorder struct {
	spans []span
}

// add records a span and returns its index.
func (r *recorder) add(s span) int {
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// timed runs fn inside a span named name under parent.
func (r *recorder) timed(trace, name string, parent int, onPath bool, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return r.add(span{Trace: trace, Name: name, Parent: parent, Start: start, End: time.Now(), OnPath: onPath}), err
}

// write dumps every span as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// samples collects per-job values of the per-layer metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func traceparent() string {
	var b [24]byte
	_, _ = rand.Read(b[:])
	return "00-" + hex.EncodeToString(b[:16]) + "-" + hex.EncodeToString(b[16:]) + "-01"
}

// runTraced is the --trace 1 run.
func runTraced(ctx context.Context, fx *fixture, o runOptions) (*outcome, error) {
	w, e := fx.w, fx.env
	rec := &recorder{}
	rp, err := newReplayer(fx, rec)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	sm := samples{}
	var tracedLat, plainLat []float64
	var attempted, failed int
	var problems []string

	var cache cacheCounts
	var allocBytes, gcCycles uint64
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for k := 0; time.Now().Before(deadline) || k < 2; k++ {
		// Jobs go traced, untraced, untraced, traced, ... so each kind
		// follows a replay (which runs after every traced job) half the
		// time, and every job starts on a collected heap: the replay
		// allocates heavily, and neither its garbage nor its aftermath may
		// bias one kind of job or count in its GC cycles.
		traced := k%4 == 0 || k%4 == 3
		var hdr http.Header
		if traced {
			// One trace per job: the trace ID names the job's span tree.
			hdr = http.Header{"Traceparent": {traceparent()}}
		}
		runtime.GC()
		before, err := e.scrape(ctx, e.front)
		if err != nil {
			return nil, err
		}
		cache0, err := e.cacheStats(ctx)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		r := e.oneJob(ctx, fx.body, hdr)
		runtime.ReadMemStats(&ms1)
		r.rows, r.reqBody = w.rows, fx.body
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		after, err := e.scrape(ctx, e.front)
		if err != nil {
			return nil, err
		}
		cache1, err := e.cacheStats(ctx)
		if err != nil {
			return nil, err
		}
		if moved := after[transitionsMetric] - before[transitionsMetric]; moved != 0 {
			problems = append(problems, fmt.Sprintf("cluster membership changed %v times during a job", moved))
		}
		cache.hits += cache1.hits - cache0.hits
		cache.misses += cache1.misses - cache0.misses
		results := []jobResult{r}
		fx.check(results)
		r = results[0]
		attempted++
		if !r.ok() {
			failed++
			problems = append(problems, r.failure())
			continue
		}
		if !traced {
			plainLat = append(plainLat, ms(r.latency()))
			continue
		}
		tracedLat = append(tracedLat, ms(r.latency()))
		delta := func(name string) float64 { return after[name] - before[name] }
		sm.add("keyhash.values_hashed", delta("wm_keyhash_values_hashed_total"))
		sm.add("pipeline.tuples_per_job", delta("wm_scan_tuples_total"))
		if len(e.workers) > 0 {
			shards := delta("wm_cluster_shards_dispatched_total")
			sm.add("cluster.shards_per_job", shards)
			sm.add("cluster.retry_ratio", delta("wm_cluster_shard_retries_total")/max(shards, 1))
		}
		if err := rp.observe(ctx, &r, sm); err != nil {
			problems = append(problems, fmt.Sprintf("job %s: %v", r.id, err))
		}
	}

	out := &outcome{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	out.Correct = len(problems) == 0
	set := func(name, unit string, v float64) { out.Metrics[name] = metric{v, unit} }
	for name, vs := range sm {
		set(name, unitOf(name), median(vs))
	}
	// Per-shard quantiles pool every traced job's shards.
	set("cluster.dispatch_p50_ms", "ms", quantile(rp.dispatch, 0.5))
	set("cluster.dispatch_p99_ms", "ms", quantile(rp.dispatch, 0.99))
	set("cluster.execute_p50_ms", "ms", quantile(rp.execute, 0.5))
	set("cluster.wire_ms", "ms", quantile(rp.dispatch, 0.5)-quantile(rp.execute, 0.5))
	jobs := float64(attempted)
	set("proc.alloc_mb_per_job", "MiB", float64(allocBytes)/jobs/(1<<20))
	set("proc.gc_cycles_per_job", "count", float64(gcCycles)/jobs)
	if cache.lookups() > 0 {
		set("core.cache_hit_ratio", "1", cache.hits/cache.lookups())
	}
	set("keyhash.calibrate_ms", "ms", ms(calibrateTime))
	set("trace.overhead_frac", "1", median(tracedLat)/median(plainLat)-1)
	for _, m := range layerMetrics {
		if _, ok := out.Metrics[m.name]; !ok {
			// The workload bypasses this layer.
			set(m.name, m.unit, 0)
		}
	}

	notes := map[string]string{
		"trace.overhead_frac": fmt.Sprintf("(traced p50 %.1fms over %d jobs, untraced %.1fms over %d)",
			median(tracedLat), len(tracedLat), median(plainLat), len(plainLat)),
		"cluster.dispatch_p99_ms": fmt.Sprintf("(%d shards)", len(rp.dispatch)),
	}
	for _, m := range layerMetrics {
		if notes[m.name] == "" {
			notes[m.name] = "moves " + m.moves
		}
	}
	printMetrics(o.report, w.name+" per-layer (p50 over traced jobs)", out.Metrics, notes)
	for _, line := range shareLines(w, out.Metrics) {
		fmt.Fprintln(o.report, "  share:", line)
	}
	wd, _ := workDir()
	path := filepath.Join(wd, fmt.Sprintf("spans-%s-seed%s.jsonl", w.name, o.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.report, "  spans: %d written to %s\n", len(rec.spans), path)
	for i, p := range problems {
		if i == 10 {
			break
		}
		fmt.Fprintln(o.report, "  FAIL", p)
	}
	return out, nil
}

// calibrateTime is how long the process's first keyhash.Calibrate took.
var calibrateTime time.Duration

// calibrate runs the process's first keyhash.Calibrate and times it.
func calibrate() {
	start := time.Now()
	keyhash.Calibrate()
	calibrateTime = time.Since(start)
}

// shareLines states the layer shares each workload is sized to show.
func shareLines(w workload, m map[string]metric) []string {
	v := func(n string) float64 { return m[n].Value }
	pct := func(x, of float64) string { return fmt.Sprintf("%.0f%%", 100*x/of) }
	if w.workers == 0 {
		run := v("jobs.run_ms")
		hm := v("trace.keyhash_self_ms") + v("trace.mark_self_ms")
		return []string{fmt.Sprintf("keyhash+mark self time %.1fms = %s of jobs.run_ms %.1fms", hm, pct(hm, run), run)}
	}
	job := v("trace.job_ms")
	wire := v("cluster.wire_ms") * v("cluster.shards_per_job") / float64(w.workers)
	return []string{
		fmt.Sprintf("of job p50 %.1fms: server.submit %s, relation.ingest %s, cluster.wire (x shards / workers) %s, keyhash.hash (CPU) %s",
			job, pct(v("server.submit_ms"), job), pct(v("relation.ingest_ms"), job), pct(wire, job), pct(v("keyhash.hash_ms"), job)),
	}
}

// cacheCounts sums the scanner-cache counters over every node.
type cacheCounts struct{ hits, misses float64 }

func (c cacheCounts) lookups() float64 { return c.hits + c.misses }

func (e *env) cacheStats(ctx context.Context) (cacheCounts, error) {
	var c cacheCounts
	for _, n := range e.nodes() {
		m, err := e.scrape(ctx, n)
		if err != nil {
			return c, err
		}
		c.hits += m["wm_scanner_cache_hits_total"]
		c.misses += m["wm_scanner_cache_misses_total"]
	}
	return c, nil
}

// programPhases reads the job's own span tree back from the server and
// sums the phase clocks of its shard.execute spans — the program's view
// of the same split the replay measures.
func (e *env) programPhases(ctx context.Context, jobID string) (map[string]float64, error) {
	status, b, err := e.do(ctx, http.MethodGet, "/v2/jobs/"+jobID+"/trace", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("job trace: HTTP %d: %.200s", status, b)
	}
	var jt api.JobTrace
	if err := json.Unmarshal(b, &jt); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var walk func(ns []*api.TraceNode)
	walk = func(ns []*api.TraceNode) {
		for _, n := range ns {
			switch n.Span.Name {
			case "shard.execute":
				for _, phase := range []string{"ingest", "hash", "vote", "merge"} {
					ns, _ := strconv.ParseFloat(n.Span.Attrs[phase+"_ns"], 64)
					out["trace.shard_"+phase+"_ms"] += ns / 1e6
				}
			case "job.run":
				out["trace.program_run_ms"] += float64(n.Span.DurationNs) / 1e6
			}
			walk(n.Children)
		}
	}
	walk(jt.Roots)
	return out, nil
}
