// Package cluster is the distributed-audit subsystem: a coordinator that
// fans one corpus verification out across N worker nodes and merges the
// results into a report bit-identical to a single-node scan.
//
// The paper's detector makes this shape cheap. Every per-tuple decision
// derives from the tuple's own key, so a suspect corpus partitions into
// contiguous row-range shards that scan independently; and a detection
// pass accumulates into a mark.Tally whose partials merge in row order
// into exactly the sequential result (pipeline.ScanMany is the
// single-node form of the same identity). The cluster simply moves the
// shard boundary from goroutines to machines:
//
//	        POST /v2/jobs (verify_batch)           [public API]
//	                  │
//	            coordinator ──────────────┐
//	             │ row-range shards +     │ merge partial tallies
//	             ▼ certificate set        │ in row order, Report
//	POST {worker}/v2/internal/scan        │
//	     worker-1 … worker-N ─────────────┘
//	     └─ heartbeat: POST {coordinator}/v2/internal/workers
//
// Membership is lease-based: workers register (and keep re-registering —
// the registration IS the heartbeat) with a URL and a capacity, and the
// coordinator stops dispatching to any worker whose lease has aged past
// the TTL. A shard that fails — worker error, unreachable node, timeout —
// is retried on the surviving workers until MaxShardAttempts is spent, so
// killing a worker mid-audit costs latency, not correctness. Transport
// failures additionally mark the worker unreachable immediately (faster
// than waiting out the TTL); its next successful heartbeat revives it.
//
// The worker side is ExecuteShard: prepare scanners from the certificates
// in the request (every scan parameter derives deterministically from a
// certificate, which is why coordinator- and worker-side scanners cannot
// disagree), run pipeline.ScanMany over the shard rows, and return the
// partial tallies in wire form (mark.TallyWire). internal/server binds it
// to POST /v2/internal/scan and the coordinator to the public audit
// endpoints; cmd/wmserver's -coordinator and -join flags pick the role.
package cluster

import (
	"errors"
	"time"
)

// Defaults for Config's zero values.
const (
	// DefaultHeartbeat is the worker re-registration interval.
	DefaultHeartbeat = 2 * time.Second
	// DefaultTTLFactor sets the lease TTL as a multiple of the heartbeat
	// interval: a worker may miss two beats before it stops receiving
	// shards.
	DefaultTTLFactor = 3
	// DefaultShardRows is the row count of each dispatched shard.
	DefaultShardRows = 8192
	// DefaultMaxShardAttempts bounds how many workers a shard is tried on
	// before the audit fails.
	DefaultMaxShardAttempts = 3
	// DefaultMaxBufferedShards bounds how many undispatched shard
	// payloads the reader may hold serialized in memory — the
	// backpressure that keeps a coordinator auditing a corpus larger
	// than its RAM from buffering the whole thing when workers scan
	// slower than the reader reads.
	DefaultMaxBufferedShards = 32
	// DefaultShardTimeout bounds one shard RPC; a worker that accepts a
	// shard and hangs is treated like an unreachable one.
	DefaultShardTimeout = 5 * time.Minute
)

// Config tunes a Coordinator.
type Config struct {
	// Heartbeat is the re-registration interval advertised to workers;
	// <= 0 means DefaultHeartbeat.
	Heartbeat time.Duration
	// TTL is how long a worker's lease lasts without a heartbeat; <= 0
	// means DefaultTTLFactor × Heartbeat.
	TTL time.Duration
	// ShardRows is the number of suspect rows per dispatched shard; <= 0
	// means DefaultShardRows.
	ShardRows int
	// MaxShardAttempts is how many distinct dispatch attempts one shard
	// gets before the audit fails; <= 0 means DefaultMaxShardAttempts.
	MaxShardAttempts int
	// MaxBufferedShards bounds the undispatched shard payloads held in
	// memory; the reader parks when the queue is full. <= 0 means
	// DefaultMaxBufferedShards.
	MaxBufferedShards int
	// ShardTimeout bounds a single shard RPC; <= 0 means
	// DefaultShardTimeout.
	ShardTimeout time.Duration
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return DefaultHeartbeat
	}
	return c.Heartbeat
}

func (c Config) ttl() time.Duration {
	if c.TTL <= 0 {
		return DefaultTTLFactor * c.heartbeat()
	}
	return c.TTL
}

func (c Config) shardRows() int {
	if c.ShardRows <= 0 {
		return DefaultShardRows
	}
	return c.ShardRows
}

func (c Config) maxShardAttempts() int {
	if c.MaxShardAttempts <= 0 {
		return DefaultMaxShardAttempts
	}
	return c.MaxShardAttempts
}

func (c Config) maxBufferedShards() int {
	if c.MaxBufferedShards <= 0 {
		return DefaultMaxBufferedShards
	}
	return c.MaxBufferedShards
}

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return DefaultShardTimeout
	}
	return c.ShardTimeout
}

// ErrNoWorkers reports a scan that cannot proceed because no live worker
// remains to dispatch to. Callers decide whether to fail the audit or
// fall back to a local scan.
var ErrNoWorkers = errors.New("cluster: no live workers")
