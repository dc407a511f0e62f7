package main

// endToEndUnits lists every end-to-end metric with its unit; each workload
// reports all of them from its untraced run (BENCHMARK.json's end_to_end).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"updates_per_s": "1/s",
	"ingest_p50_ms": "ms",
	"ingest_p90_ms": "ms",
	"query_p50_ms":  "ms",
	"query_p90_ms":  "ms",
	"queries_per_s": "1/s",
	"cpu_ms_per_op": "ms",
	"heap_live_mb":  "MB",
	"ok_ratio":      "ratio",
}

// layerUnits lists every per-layer metric with its unit; the traced run
// of each workload reports all of them (BENCHMARK.json's per_layer). A
// layer a workload does not exercise reports 0.
var layerUnits = map[string]string{
	"gateway.query_self_ms":    "ms",
	"gateway.ingest_self_ms":   "ms",
	"gateway.bytes_per_query":  "bytes",
	"gateway.bytes_per_ingest": "bytes",

	"router.do_ms":                       "ms",
	"router.bounds_ms":                   "ms",
	"router.survivors_ms":                "ms",
	"router.refine_ms":                   "ms",
	"router.lookup_ms":                   "ms",
	"router.merge_self_ms":               "ms",
	"router.ingest_ms":                   "ms",
	"router.survivors_shipped_per_query": "count",
	"router.shard_calls_per_query":       "count",
	"router.shard_skew":                  "ratio",
	"router.retries":                     "count",

	"wire.bytes_out_per_query": "bytes",
	"wire.bytes_in_per_query":  "bytes",
	"wire.bytes_per_update":    "bytes",
	"wire.dials":               "count",

	"hub.ingest_p50_ms":    "ms",
	"hub.ingest_p90_ms":    "ms",
	"hub.evals_per_batch":  "count",
	"hub.skip_ratio":       "ratio",
	"hub.shared_ratio":     "ratio",
	"hub.events_per_batch": "count",
	"hub.subscribe_ms":     "ms",

	"wal.append_p50_ms":      "ms",
	"wal.append_p90_ms":      "ms",
	"wal.after_apply_p90_ms": "ms",
	"wal.bytes_per_update":   "bytes",
	"wal.snapshots":          "count",

	"mod.index_rebuilds":    "count",
	"mod.index_incremental": "count",

	"engine.do_ms":          "ms",
	"engine.memo_hit_ratio": "ratio",
	"engine.survivor_ratio": "ratio",

	"prune.textual_ms":          "ms",
	"prune.snapshot_ms":         "ms",
	"prune.bounds_ms":           "ms",
	"prune.sweep_ms":            "ms",
	"prune.probes_per_query":    "count",
	"prune.slices_per_query":    "count",
	"prune.textual_selectivity": "ratio",

	"envelope.distfn_ms": "ms",
	"envelope.lower_ms":  "ms",
	"envelope.intervals": "count",

	"refine.zone_ms":   "ms",
	"refine.hit_ratio": "ratio",
	"rank.levels_ms":   "ms",

	"runtime.alloc_mb_per_op": "MB",
	"runtime.gc_cycles":       "count",
	"loadgen.lag_p90_ms":      "ms",
	"trace.overhead_pct":      "%",
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill.
func zeroLayers() map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{0, unit}
	}
	return out
}

// set stores a per-layer value under its registered unit.
func set(into map[string]metric, name string, v float64) {
	into[name] = metric{v, layerUnits[name]}
}
