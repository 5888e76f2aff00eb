package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/api"
)

// runOptions selects one run of one workload.
type runOptions struct {
	seed    string
	seconds int
	trace   bool
	report  io.Writer
	// setups, when positive, fixes how many times the topology is set
	// up (the self-test sets up once); otherwise moreSetups decides.
	setups int
}

// A run sets the topology up at least minSetups times and until
// setupBudget has been spent (at most maxSetups times); setup_s is the
// median, and the last set-up serves the timed load. Each set-up runs
// alone: the previous topology is closed and its garbage collected
// first.
const (
	minSetups   = 9
	maxSetups   = 40
	setupBudget = 5 * time.Second
)

func (o runOptions) moreSetups(done int, spent time.Duration) bool {
	if o.setups > 0 {
		return done < o.setups
	}
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

// fixture is one set-up topology, ready for timed load.
type fixture struct {
	w       workload
	in      *inputs
	env     *env
	ownerID string
	// suspect is the owner's marked relation as the server returned it;
	// body is the audit job the client submits.
	suspect string
	body    []byte
	ref     *api.BatchVerifyResponse
}

// setUp builds the topology and makes it ready for timed load: store
// open, server construction, the worker join until every worker is live,
// the catalog registered over HTTP, and one untimed warm-up job that
// fills the scanner caches. keyhash.Calibrate has run before the first
// set-up; the traced run reports it as keyhash.calibrate_ms. The
// returned duration excludes the generator's own work (encoding the
// audit body around the suspect the server returned).
func setUp(ctx context.Context, w workload, in *inputs, dir string) (*fixture, time.Duration, error) {
	start := time.Now()
	e, err := startEnv(w, dir)
	if err != nil {
		return nil, 0, err
	}
	fx := &fixture{w: w, in: in, env: e}
	fail := func(err error) (*fixture, time.Duration, error) {
		e.close()
		return nil, 0, err
	}
	owner, err := e.register(ctx, in.regOwner)
	if err != nil {
		return fail(err)
	}
	fx.ownerID, fx.suspect = owner.ID, owner.Data
	for _, body := range in.regOthers {
		if _, err := e.register(ctx, body); err != nil {
			return fail(err)
		}
	}
	g := time.Now()
	if fx.body, err = auditBody(in, w.format, fx.suspect); err != nil {
		return fail(err)
	}
	gen := time.Since(g)
	if r := e.oneJob(ctx, fx.body, nil); r.err != nil || r.state != string(api.JobDone) || r.scans == 0 {
		return fail(fmt.Errorf("warm-up job: %s (state %q, %d shard RPCs)", r.failure(), r.state, r.scans))
	}
	return fx, time.Since(start) - gen, nil
}

// workDir is where runs keep their scratch stores: E2EBENCH_WORKDIR
// (run.sh points it into the checkout's build directory) or the current
// directory's .bench_build.
func workDir() (string, error) {
	dir := os.Getenv("E2EBENCH_WORKDIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// run executes one workload end to end and returns its outcome.
func run(w workload, o runOptions) (*outcome, error) {
	ctx := context.Background()
	if calibrateTime == 0 {
		calibrate()
	}
	in, err := genInputs(w, o.seed)
	if err != nil {
		return nil, err
	}
	wd, err := workDir()
	if err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(wd, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var setups []float64
	var spent time.Duration
	var fx *fixture
	for k := 0; o.moreSetups(k, spent); k++ {
		var suspect string
		if fx != nil {
			suspect = fx.suspect
			fx.env.close()
			os.RemoveAll(fx.env.dir)
			fx = nil
			runtime.GC()
		}
		f, d, err := setUp(ctx, w, in, filepath.Join(base, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		if k > 0 && f.suspect != suspect {
			f.env.close()
			return nil, fmt.Errorf("set-up %d: the owner's marked relation differs between set-ups", k)
		}
		setups = append(setups, d.Seconds())
		spent += d
		fx = f
	}
	defer fx.env.close()
	if fx.ref, err = auditReference(ctx, fx.env.front.store, in.schema, w.format, fx.suspect, fx.ownerID); err != nil {
		return nil, err
	}
	// Drop the generator's own copies of the inputs: the timed phase's
	// heap, and so peak_rss_mb, is then the servers' plus the job bodies
	// in flight.
	in.regOwner, in.regOthers, fx.suspect = nil, nil, ""
	fmt.Fprintf(o.report, "workload %s (seed %s): %s\n", w.name, o.seed, w.why)
	fmt.Fprintf(o.report, "fingerprint %s\n", fingerprintJSON())
	fmt.Fprintf(o.report, "set-ups: %d, median %.4fs\n", len(setups), median(setups))
	if o.trace {
		return runTraced(ctx, fx, o)
	}
	return runTimed(ctx, fx, o, setups)
}

// runTimed is the end-to-end run: production server defaults, nothing
// traced, one closed-loop client for the whole timed phase.
func runTimed(ctx context.Context, fx *fixture, o runOptions, setups []float64) (*outcome, error) {
	w, e := fx.w, fx.env
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()
	before, err := e.scrape(ctx, e.front)
	if err != nil {
		return nil, err
	}
	results, wall := e.closedLoop(ctx, time.Duration(o.seconds)*time.Second, fx.body, w.rows, fx.check)
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	after, err := e.scrape(ctx, e.front)
	if err != nil {
		return nil, err
	}

	var problems []string
	if moved := after[transitionsMetric] - before[transitionsMetric]; moved != 0 {
		problems = append(problems, fmt.Sprintf("cluster membership changed %v times during the timed phase", moved))
	}
	out := &outcome{Attempted: len(results), Metrics: map[string]metric{}}
	var lat []float64
	rows := 0
	for i := range results {
		r := &results[i]
		if !r.end.IsZero() {
			lat = append(lat, ms(r.latency()))
		}
		if r.ok() {
			rows += r.rows
			continue
		}
		out.Failed++
		if len(problems) < 10 {
			problems = append(problems, r.failure())
		}
	}
	out.Correct = len(problems) == 0 && out.Attempted > 0
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	out.Metrics["job_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	out.Metrics["job_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	out.Metrics["rows_per_s"] = metric{float64(rows) / wall.Seconds(), "1/s"}
	out.Metrics["peak_rss_mb"] = metric{peak, "MiB"}
	shown := map[string]metric{"jobs_failed_frac": {float64(out.Failed) / float64(max(out.Attempted, 1)), "1"}}
	for k, v := range out.Metrics {
		shown[k] = v
	}
	tail := len(lat) - int(0.9*float64(len(lat)))
	notes := map[string]string{
		"job_p50_ms":       fmt.Sprintf("(n=%d)", len(lat)),
		"job_p90_ms":       fmt.Sprintf("(n=%d, %d beyond it)", len(lat), tail),
		"jobs_failed_frac": fmt.Sprintf("(%d of %d)", out.Failed, out.Attempted),
		"rows_per_s":       fmt.Sprintf("(%d rows in %.2fs)", rows, wall.Seconds()),
		"setup_s":          fmt.Sprintf("(median of %d)", len(setups)),
	}
	if len(lat) < 100 {
		notes["job_p90_ms"] += " fewer than 100 jobs: too few samples beyond p90"
	}
	if !rssReset {
		notes["peak_rss_mb"] = "(whole process: VmHWM could not be reset)"
	}
	printMetrics(o.report, w.name+" end-to-end", shown, notes)
	for _, p := range problems {
		fmt.Fprintln(o.report, "  FAIL", p)
	}
	return out, nil
}

// transitionsMetric counts the coordinator's membership changes: a
// worker whose lease lapses mid-run would let audits fall back to a
// local scan, so any change during timed load fails the run.
const transitionsMetric = "wm_cluster_membership_transitions_total"

// check runs the correctness check on every finished job; a failure
// lands in the job's wrong field.
func (fx *fixture) check(results []jobResult) {
	for i := range results {
		r := &results[i]
		if r.err != nil || r.state != string(api.JobDone) {
			continue
		}
		if r.scans == 0 {
			r.wrong = fmt.Errorf("dispatched no shards: the coordinator scanned locally")
		} else {
			r.wrong = checkAudit(r.body, fx.ref)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
