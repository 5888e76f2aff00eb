package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
)

// jobResult is one job as the client saw it.
type jobResult struct {
	// id is the job ID from the 202 reply ("" when never accepted).
	id string
	// status is the POST /v2/jobs reply status.
	status int
	// state is the terminal job state ("" when never accepted).
	state string
	// err is a transport or protocol failure.
	err error
	// start is when the POST began, accepted when its 202 body was read,
	// end when the terminal job body was fully read.
	start, accepted, end time.Time
	// body is the terminal job resource, as sent.
	body []byte
	// rows is the number of rows the job carried.
	rows int
	// scans is the number of shard RPCs the workers served while the job
	// ran (cluster workloads only; -1 = not measured).
	scans int64
	// reqBody is the job request as sent (kept by the traced run only,
	// for the replay).
	reqBody []byte
	// wrong is the checker's verdict on a finished job's result.
	wrong error
}

func (r *jobResult) latency() time.Duration { return r.end.Sub(r.start) }

// ok reports whether the job finished done and passed its check.
func (r *jobResult) ok() bool {
	return r.err == nil && r.state == string(api.JobDone) && r.wrong == nil
}

// failure classifies a job that did not pass, for the failure report.
func (r *jobResult) failure() string {
	switch {
	case r.err != nil:
		return "transport: " + r.err.Error()
	case r.status == http.StatusTooManyRequests:
		return "refused 429"
	case r.state != string(api.JobDone):
		return fmt.Sprintf("job %s ended %s: %.200s", r.id, r.state, r.body)
	case r.wrong != nil:
		return fmt.Sprintf("job %s wrong result: %v", r.id, r.wrong)
	}
	return ""
}

// longPoll is the ?wait= every status poll parks for.
const longPoll = "30s"

// runJob submits one job and long-polls it until it is terminal. The
// latency it records runs from the start of the POST until the terminal
// job body has been fully read.
func (e *env) runJob(ctx context.Context, body []byte, header http.Header) jobResult {
	r := jobResult{start: time.Now(), scans: -1}
	status, b, err := e.do(ctx, http.MethodPost, "/v2/jobs", body, header)
	r.accepted, r.status = time.Now(), status
	if err != nil {
		r.err = err
		return r
	}
	if status != http.StatusAccepted {
		r.state, r.body, r.end = "refused", b, r.accepted
		return r
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil || sub.ID == "" {
		r.err = fmt.Errorf("submit reply %.200q: %v", b, err)
		return r
	}
	r.id = sub.ID
	for {
		status, b, err = e.do(ctx, http.MethodGet, "/v2/jobs/"+r.id+"?wait="+longPoll, nil, nil)
		if err != nil {
			r.err = err
			return r
		}
		if status != http.StatusOK {
			r.err = fmt.Errorf("poll: HTTP %d: %.200s", status, b)
			return r
		}
		state := jobState(b)
		if api.JobState(state).Terminal() {
			r.end, r.state, r.body = time.Now(), state, b
			return r
		}
	}
}

// jobState reads the state field of a job resource without decoding the
// (possibly multi-megabyte) result: the server encodes api.Job in field
// order, so it sits within the first few hundred bytes.
func jobState(b []byte) string {
	head := b[:min(len(b), 512)]
	const key = `"state":"`
	if i := bytes.Index(head, []byte(key)); i >= 0 {
		rest := head[i+len(key):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			return string(rest[:j])
		}
	}
	var j struct {
		State string `json:"state"`
	}
	_ = json.Unmarshal(b, &j)
	return j.State
}

// segmentJobs is how many jobs the closed loop runs before it pauses to
// check the results so far. The pause keeps the checker off the CPUs
// while jobs run.
const segmentJobs = 50

// closedLoop runs one closed-loop client for d of timed wall: it submits
// body, a job of rows rows, again once its previous job is terminal. The
// clock runs in segments of segmentJobs jobs; between segments, with no
// job in flight and the clock stopped, check verifies and then drops the
// segment's results. No job starts once d has elapsed, so wall is d plus
// the tail of the last job.
func (e *env) closedLoop(ctx context.Context, d time.Duration, body []byte, rows int, check func([]jobResult)) (results []jobResult, wall time.Duration) {
	for wall < d && ctx.Err() == nil {
		var segment []jobResult
		start := time.Now()
		deadline := start.Add(d - wall)
		for k := 0; k < segmentJobs && time.Now().Before(deadline) && ctx.Err() == nil; k++ {
			r := e.oneJob(ctx, body, nil)
			r.rows = rows
			segment = append(segment, r)
		}
		wall += time.Since(start)
		check(segment)
		for i := range segment {
			segment[i].body = nil
		}
		results = append(results, segment...)
	}
	return results, wall
}

// oneJob runs a job and, on a cluster, counts the shard RPCs the workers
// served while it ran: jobs never overlap, so every one is the job's.
func (e *env) oneJob(ctx context.Context, body []byte, header http.Header) jobResult {
	before := e.workerScans()
	r := e.runJob(ctx, body, header)
	if len(e.workers) > 0 {
		r.scans = e.workerScans() - before
	}
	return r
}
