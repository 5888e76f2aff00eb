package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// ExecuteShard is the worker half of the shard protocol: prepare one
// scanner per certificate in the request, run the one-pass
// multi-certificate block engine over the shard rows, and return the
// partial tallies in wire form. internal/server's POST /v2/internal/scan
// handler is a thin decode/encode wrapper around this call — which also
// makes it the single-node reference the cluster tests check the HTTP
// path against.
//
// opts supplies the worker-local execution knobs (scanner cache, hash
// kernel, default parallelism); the request's Workers overrides the
// parallelism per shard. A certificate that fails to prepare fails the
// whole shard — the coordinator only ships records its own identical
// prep accepted, so a disagreement here means corrupt wire data, and
// failing loudly (the shard is retried, then the audit fails) beats
// merging a tally hole silently.
func ExecuteShard(ctx context.Context, req api.ShardScanRequest, opts core.BatchOptions) (*api.ShardScanResponse, error) {
	// The worker-side execution span: a child of the coordinator's
	// dispatch span when the RPC carried traceparent (the server
	// middleware joined it into ctx). Phase clocks ride the pipeline
	// config only when the trace is sampled — ph stays nil otherwise and
	// the zero-alloc scan path never reads a clock.
	ctx, span := trace.Start(ctx, "shard.execute")
	defer span.End()
	span.SetInt("shard", int64(req.Shard))
	var ph *trace.Phases
	if span != nil {
		ph = &trace.Phases{}
	}

	schema, err := relation.ParseSchemaSpec(req.Schema)
	if err != nil {
		err = fmt.Errorf("cluster: shard %d schema: %w", req.Shard, err)
		span.SetError(err)
		return nil, err
	}
	// The shard rows are parsed by the zero-copy block readers, which
	// pipeline.ScanMany scans without a per-row allocation.
	var src relation.RowReader
	switch strings.ToLower(req.Format) {
	case "", "csv":
		src, err = relation.NewCSVBlockReader(strings.NewReader(req.Data), schema)
	case "jsonl":
		src = relation.NewJSONLBlockReader(strings.NewReader(req.Data), schema)
	default:
		err = fmt.Errorf("unknown format %q (want csv or jsonl)", req.Format)
	}
	if err != nil {
		err = fmt.Errorf("cluster: shard %d rows: %w", req.Shard, err)
		span.SetError(err)
		return nil, err
	}

	prep := core.PrepareBatch(req.Records, schema, opts)
	if errs := prep.Errs(); len(prep.Scanners()) != len(req.Records) {
		for i, err := range errs {
			if err != nil {
				err = fmt.Errorf("cluster: shard %d certificate %d: %w", req.Shard, i, err)
				span.SetError(err)
				return nil, err
			}
		}
	}

	workers := opts.Workers
	if req.Workers != 0 {
		workers = req.Workers
	}
	tallies, err := pipeline.ScanMany(ctx, src, prep.Scanners(), pipeline.Config{
		Workers:  normalizeWorkers(workers),
		Progress: opts.Progress,
		Phases:   ph,
	})
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	if span != nil {
		kernel := string(opts.HashKernel)
		if kernel == "" {
			kernel = keyhash.ActiveKernel()
		}
		span.SetAttr("kernel", kernel)
	}
	ph.Annotate(span)
	resp := &api.ShardScanResponse{Shard: req.Shard, Tallies: make([]mark.TallyWire, len(tallies))}
	for j, t := range tallies {
		resp.Tallies[j] = t.Wire()
	}
	if len(tallies) > 0 {
		resp.Rows = tallies[0].Rows
		span.SetInt("rows", int64(tallies[0].Rows))
	}
	return resp, nil
}

// normalizeWorkers maps the Spec.Workers convention (0 sequential,
// negative NumCPU) onto pipeline.Config.Workers (<= 0 means NumCPU).
func normalizeWorkers(w int) int {
	if w == 0 {
		return 1
	}
	if w < 0 {
		return 0
	}
	return w
}

// Agent keeps one worker joined to a coordinator: an initial registration
// followed by heartbeats at the coordinator's advertised interval, each a
// full (idempotent) re-registration — so a coordinator restart costs one
// missed beat, not the membership. Registration failures are retried at
// the same cadence; the worker serves shards regardless, since dispatch
// needs only the coordinator to know the worker, not vice versa. A
// failure is never silent: transitions are logged (once per change, not
// per beat — a down coordinator would spam otherwise) and the latest
// error is readable via LastError, which worker /healthz surfaces as
// heartbeat_error — so a -join against a typo'd URL or a non-coordinator
// is visible, not a cluster that quietly never forms.
type Agent struct {
	coordinator string
	reg         api.WorkerRegistration
	client      *client.Client
	log         *slog.Logger
	// beats counts registration attempts by result ("ok"/"error"), nil
	// without WithAgentObs.
	beats *obs.CounterVec

	stop   context.CancelFunc
	done   chan struct{}
	onBeat func(error) // test hook, observes each registration attempt

	mu      sync.Mutex
	lastErr error
	joined  bool // a registration has succeeded at least once
}

// AgentOption customises a StartAgent call.
type AgentOption func(*Agent)

// WithAgentHTTPClient substitutes the http.Client heartbeats travel on.
func WithAgentHTTPClient(hc *http.Client) AgentOption {
	return func(a *Agent) { a.client = client.New(a.coordinator, client.WithHTTPClient(hc)) }
}

// WithAgentLogger routes membership transitions (joined, heartbeat
// failing, recovered) to l.
func WithAgentLogger(l *slog.Logger) AgentOption {
	return func(a *Agent) { a.log = l }
}

// WithAgentObs registers the agent's wm_cluster_heartbeats_total
// family on r, counting registration attempts by result.
func WithAgentObs(r *obs.Registry) AgentOption {
	return func(a *Agent) {
		a.beats = r.CounterVec("wm_cluster_heartbeats_total",
			"Heartbeat registrations sent to the coordinator, by result.", "result")
	}
}

// withBeatHook observes registration attempts (tests only).
func withBeatHook(fn func(error)) AgentOption {
	return func(a *Agent) { a.onBeat = fn }
}

// StartAgent registers reg with the coordinator and starts the heartbeat
// loop. Stop the returned agent to leave the cluster (the coordinator
// notices through lease expiry — there is no explicit deregistration, so
// a crash and a clean stop look the same, which is the failure model the
// scheduler is built for anyway).
func StartAgent(coordinatorURL string, reg api.WorkerRegistration, opts ...AgentOption) *Agent {
	//wmlint:ignore ctxloop agent lifecycle outlives any single request; Agent.Stop cancels this root
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{
		coordinator: coordinatorURL,
		reg:         reg,
		client:      client.New(coordinatorURL),
		stop:        cancel,
		done:        make(chan struct{}),
	}
	for _, o := range opts {
		o(a)
	}
	go a.loop(ctx)
	return a
}

// Coordinator returns the URL the agent is joined to.
func (a *Agent) Coordinator() string { return a.coordinator }

// LastError reports the most recent registration attempt's failure, or
// nil when it succeeded (or none has completed yet).
func (a *Agent) LastError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

// observe records one registration outcome and logs transitions.
func (a *Agent) observe(err error) {
	a.mu.Lock()
	prev := a.lastErr
	wasJoined := a.joined
	a.lastErr = err
	if err == nil {
		a.joined = true
	}
	a.mu.Unlock()
	if a.beats != nil {
		result := "ok"
		if err != nil {
			result = "error"
		}
		a.beats.With(result).Inc()
	}
	if a.log == nil {
		return
	}
	switch {
	case err == nil && !wasJoined:
		a.log.Info("cluster: joined coordinator", "coordinator", a.coordinator, "advertise", a.reg.URL, "worker", a.reg.ID)
	case err == nil && prev != nil:
		a.log.Info("cluster: heartbeat recovered", "coordinator", a.coordinator)
	case err != nil && (prev == nil || prev.Error() != err.Error()):
		a.log.Warn("cluster: heartbeat failing", "coordinator", a.coordinator, "err", err)
	}
}

// Stop ends the heartbeat loop and waits for it to exit.
func (a *Agent) Stop() {
	a.stop()
	<-a.done
}

func (a *Agent) loop(ctx context.Context) {
	defer close(a.done)
	interval := DefaultHeartbeat
	timer := time.NewTimer(0) // first registration immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		ack, err := a.client.RegisterWorker(ctx, a.reg)
		if ctx.Err() != nil {
			return // a Stop mid-request is not a heartbeat failure
		}
		a.observe(err)
		if a.onBeat != nil {
			a.onBeat(err)
		}
		if err == nil && ack.HeartbeatSeconds > 0 {
			interval = time.Duration(ack.HeartbeatSeconds * float64(time.Second))
		}
		timer.Reset(interval)
	}
}
