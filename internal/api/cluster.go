package api

import (
	"repro/internal/core"
	"repro/internal/mark"
)

// Cluster wire types: the coordinator/worker protocol behind distributed
// verify_batch audits. A cluster is one coordinator (the node the public
// API is pointed at) plus N workers; workers announce themselves with
// WorkerRegistration heartbeats, and the coordinator fans a corpus audit
// out as ShardScanRequests — contiguous row-range shards of the suspect
// plus the full certificate set — merging the returned partial tallies in
// row order into a report bit-identical to a single-node scan.
//
// The /v2/internal/* routes these types travel are cluster-internal:
// ShardScanRequest carries certificates WITH their owner secrets (a
// worker cannot compute the keyed hashes without them), so these
// endpoints must only ever be reachable inside the trust boundary the
// certificate store itself lives in.

// Cluster roles, as reported by /healthz.
const (
	// RoleSingle is a standalone server: no cluster configured, audits
	// scan locally.
	RoleSingle = "single"
	// RoleCoordinator accepts worker registrations and fans audits out.
	RoleCoordinator = "coordinator"
	// RoleWorker serves shard scans and heartbeats a coordinator.
	RoleWorker = "worker"
)

// WorkerRegistration is the POST /v2/internal/workers body — both the
// initial join and every subsequent heartbeat (registration is idempotent
// upsert; the coordinator refreshes the worker's lease each time).
type WorkerRegistration struct {
	// ID identifies the worker across re-registrations; a restarted
	// worker re-joining under the same ID replaces its old entry. Empty
	// defaults to URL.
	ID string `json:"id,omitempty"`
	// URL is the base URL the coordinator dispatches shards to.
	URL string `json:"url"`
	// Capacity is how many shards the worker scans concurrently; <= 0
	// means 1.
	Capacity int `json:"capacity,omitempty"`
	// Kernel is the hash backend the worker's scans run on: the winner
	// of its keyhash.Calibrate. Informational: the coordinator surfaces
	// it in /healthz.
	Kernel string `json:"kernel,omitempty"`
	// HashesPerSec is the worker's calibrated single-thread keyed-hash
	// rate (keyhash.Calibrate). Informational: the coordinator surfaces
	// it in /healthz; shard sizes do not depend on it.
	HashesPerSec float64 `json:"hashes_per_sec,omitempty"`
}

// WorkerAck is the registration reply: the lease terms the coordinator
// expects the worker to heartbeat under.
type WorkerAck struct {
	// HeartbeatSeconds is the interval the worker should re-register at.
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
	// TTLSeconds is how long the lease lasts without a heartbeat before
	// the coordinator stops dispatching to the worker.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// WorkerStatus is one worker's membership entry in ClusterStatus.
type WorkerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Capacity int    `json:"capacity"`
	// Live reports whether the lease is current (heartbeat age < TTL and
	// the worker is not marked unreachable).
	Live bool `json:"live"`
	// LastHeartbeatAgeSeconds is the age of the newest heartbeat.
	LastHeartbeatAgeSeconds float64 `json:"last_heartbeat_age_seconds"`
	// ActiveShards is how many dispatched shards the worker currently
	// holds.
	ActiveShards int `json:"active_shards"`
	// Kernel is the hash backend the worker advertised at registration.
	Kernel string `json:"kernel,omitempty"`
	// HashesPerSec is the worker's advertised calibrated hash rate.
	HashesPerSec float64 `json:"hashes_per_sec,omitempty"`
	// RowsPerSec is the coordinator's observed per-worker scan
	// throughput (EWMA over completed shards). Zero until the worker
	// completes a shard.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
}

// ClusterStatus is the cluster block of the /healthz body.
type ClusterStatus struct {
	// Role is RoleSingle, RoleCoordinator or RoleWorker.
	Role string `json:"role"`
	// Coordinator is the coordinator base URL a worker is joined to
	// (workers only).
	Coordinator string `json:"coordinator,omitempty"`
	// HeartbeatError is the worker's latest failed registration attempt
	// (workers only; empty while heartbeats succeed). A -join pointed at
	// a typo'd URL or a non-coordinator shows up here instead of
	// silently never forming a cluster.
	HeartbeatError string `json:"heartbeat_error,omitempty"`
	// LiveWorkers counts workers with a current lease (coordinator only).
	LiveWorkers int `json:"live_workers"`
	// Workers lists the membership table, live and expired (coordinator
	// only).
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// ShardScanRequest is the POST /v2/internal/scan body: one contiguous
// row-range shard of a suspect corpus plus every certificate riding the
// audit. The worker scans the shard once with the certificate loop inside
// the block loop (pipeline.ScanMany) and returns one partial tally per
// certificate.
type ShardScanRequest struct {
	// Shard is the shard's index in row order — echoed back so responses
	// can be matched to ranges, and the order partials merge in.
	Shard int `json:"shard"`
	// Schema is the schema-spec string the shard rows conform to.
	Schema string `json:"schema"`
	// Format of Data: "csv" (default) or "jsonl".
	Format string `json:"format,omitempty"`
	// Data is the shard's rows, serialized in Format.
	Data string `json:"data"`
	// Records is the certificate set, secrets included — every scan
	// parameter derives deterministically from a record, which is what
	// keeps worker-side scanners identical to the coordinator's.
	Records []*core.Record `json:"records"`
	// Workers overrides the worker node's per-shard scan parallelism
	// (n >= 1 workers, 0 = the node's default), as in watermark.
	Workers int `json:"workers,omitempty"`
}

// ShardScanResponse is the shard scan reply: partial tallies in request
// certificate order.
type ShardScanResponse struct {
	// Shard echoes the request's shard index.
	Shard int `json:"shard"`
	// Rows is the number of shard rows scanned.
	Rows int `json:"rows"`
	// Tallies holds one partial tally per request certificate, to be
	// merged in shard order with mark.Tally.Merge.
	Tallies []mark.TallyWire `json:"tallies"`
}
