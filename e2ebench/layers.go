package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload a change to its layer should move.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics is the per-layer metric table BENCHMARK.json lists; the
// self-test holds the two to each other.
var layerMetrics = []layerMetric{
	{"server.submit_ms", "ms", "lower", "job_p50_ms on audit-cluster (POST /v2/jobs round trip to 202)"},
	{"server.decode_ms", "ms", "lower", "job_p50_ms on audit-cluster (json.Unmarshal of the request body)"},
	{"server.result_ms", "ms", "lower", "job_p50_ms on audit-catalog (terminal GET returned minus FinishedAt: long-poll wake-up and result encode)"},
	{"jobs.queue_wait_ms", "ms", "lower", "job_p90_ms on every workload (submit to a job worker picking the job up)"},
	{"jobs.run_ms", "ms", "lower", "job_p50_ms on every workload"},
	{"relation.ingest_ms", "ms", "lower", "rows_per_s on audit-cluster (ReadBlock loop over the suspect)"},
	{"relation.scan_ingest_ms", "ms", "lower", "rows_per_s on audit-catalog (ingest phase of the replayed scan, CPU)"},
	{"keyhash.hash_ms", "ms", "lower", "rows_per_s on audit-catalog, not audit-cluster (hash phase, CPU)"},
	{"keyhash.values_hashed", "count", "lower", "rows_per_s on audit-catalog (per-job delta of wm_keyhash_values_hashed_total)"},
	{"keyhash.calibrate_ms", "ms", "lower", "process start only (first keyhash.Calibrate; setup_s is the median of later set-ups)"},
	{"mark.vote_ms", "ms", "lower", "rows_per_s on audit-catalog (vote phase, CPU)"},
	{"mark.merge_ms", "ms", "lower", "job_p50_ms on audit-cluster (merge phase plus Tally.Merge of shard partials)"},
	{"mark.report_ms", "ms", "lower", "job_p50_ms on audit-catalog (Scanner.Report x certificates)"},
	{"pipeline.scan_wall_ms", "ms", "lower", "rows_per_s on audit-catalog (pipeline.ScanMany wall)"},
	{"pipeline.parallel_eff", "1", "higher", "rows_per_s on audit-catalog (phase time / (workers x wall))"},
	{"pipeline.tuples_per_job", "count", "lower", "rows_per_s on audit-catalog (per-job delta of wm_scan_tuples_total)"},
	{"core.prepare_ms", "ms", "lower", "job_p50_ms on audit-catalog (core.PrepareBatch, warm cache)"},
	{"core.cache_hit_ratio", "1", "higher", "job_p50_ms on audit-catalog (scanner-cache hits / lookups)"},
	{"cluster.dispatch_p50_ms", "ms", "lower", "job_p50_ms on audit-cluster (per-shard POST /v2/internal/scan round trip)"},
	{"cluster.dispatch_p99_ms", "ms", "lower", "job_p90_ms on audit-cluster"},
	{"cluster.execute_p50_ms", "ms", "lower", "job_p50_ms on audit-cluster (cluster.ExecuteShard on the same requests)"},
	{"cluster.wire_ms", "ms", "lower", "job_p50_ms on audit-cluster (dispatch p50 - execute p50)"},
	{"cluster.coord_wall_ms", "ms", "lower", "job_p50_ms on audit-cluster (Coordinator.ScanShards wall)"},
	{"cluster.shards_per_job", "count", "lower", "job_p50_ms on audit-cluster"},
	{"cluster.retry_ratio", "1", "lower", "job_p90_ms on audit-cluster (retries / dispatched)"},
	{"store.get_ms", "ms", "lower", "job_p50_ms on audit-catalog (store.List + store.Get x certificates)"},
	{"proc.alloc_mb_per_job", "MiB", "lower", "peak_rss_mb and job_p90_ms on audit-cluster"},
	{"proc.gc_cycles_per_job", "count", "lower", "job_p90_ms on audit-cluster"},
	{"trace.job_ms", "ms", "lower", "job_p50_ms (traced jobs, for the shares)"},
	{"trace.keyhash_self_ms", "ms", "lower", "rows_per_s on audit-catalog (hash phase as a share of scan wall)"},
	{"trace.mark_self_ms", "ms", "lower", "rows_per_s on audit-catalog (vote+merge share of scan wall, plus report)"},
	{"trace.unattributed_ms", "ms", "lower", "nothing: jobs.run_ms minus the replay's layer self times"},
	{"trace.overhead_frac", "1", "lower", "nothing: traced / untraced job_p50_ms - 1"},
	{"trace.program_run_ms", "ms", "lower", "cross-check: the server's own job.run span"},
	{"trace.shard_ingest_ms", "ms", "lower", "cross-check: shard.execute ingest_ns, summed per job"},
	{"trace.shard_hash_ms", "ms", "lower", "cross-check: shard.execute hash_ns, summed per job"},
	{"trace.shard_vote_ms", "ms", "lower", "cross-check: shard.execute vote_ns, summed per job"},
	{"trace.shard_merge_ms", "ms", "lower", "cross-check: shard.execute merge_ns, summed per job"},
}

// unitOf is a per-layer metric's unit ("" for a name the table lacks,
// which the self-test reports).
func unitOf(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
