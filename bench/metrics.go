package main

import "fmt"

// metricDef names one reported number. BENCHMARK.json lists the same names
// and units (TestBenchmarkJSONMatchesHarness holds the two together);
// direction and regression bound live there.
type metricDef struct{ name, unit string }

// endToEnd: what a user of the daemon sees. Every workload reports every one
// of them from the untraced measured run. "op" is the workload's
// closed-loop operation: /query on warm_read, cold_plan and mixed_rw,
// /update on write_stream.
var endToEnd = []metricDef{
	{"setup_s", "s"},                      // generate + BuildStore + daemon start to first /healthz 200; median of the run's set-ups
	{"ops_per_s", "1/s"},                  // completed operations (queries and acked updates) per second
	{"op_p50_ms", "ms"},                   // closed-loop operation latency, median
	{"op_p90_ms", "ms"},                   // …and the highest percentile every workload has ≥10 samples beyond
	{"rss_peak_mb", "MB"},                 // daemon VmHWM
	{"cpu_s_per_1k_ops", "s"},             // daemon utime+stime per 1000 completed operations
	{"store_bytes_per_doc_byte", "ratio"}, // store directory after build ÷ XML bytes
}

// perLayer: single-layer numbers from the traced run, never gated. "lib"
// metrics are medians of spans the harness times around a layer's public
// call; "scrape" metrics are /metrics deltas over the daemon window; "resp"
// metrics are read from responses. A metric a workload does not exercise
// reads 0. README maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"pattern.parse_us", "us"},       // lib pattern.Parse
	{"core.rewrite_ms", "ms"},        // lib core.Rewrite (plan misses only)
	{"core.plans_explored", "count"}, // RewriteResult.PlansExplored, median
	{"core.rewrite_alloc_mb", "MB"},  // TotalAlloc delta across core.Rewrite, median
	{"cost.pick_us", "us"},           // lib core.ChooseBest with Estimator.PlanCost
	{"view.snapshot_us", "us"},       // lib Store.Snapshot + Release
	{"algebra.exec_scan_ms", "ms"},   // lib algebra.ExecuteWith, scan/page/count classes
	{"algebra.exec_select_ms", "ms"}, // …select class
	{"algebra.exec_join_ms", "ms"},   // …join class
	{"serve.encode_sort_ms", "ms"},   // lib Relation.Sorted
	{"serve.encode_render_ms", "ms"}, // lib Render loop over the window
	{"serve.encode_json_ms", "ms"},   // lib json.Marshal of a QueryResponse
	{"maintain.parse_us", "us"},      // lib maintain.ParseUpdates
	{"maintain.dryrun_ms", "ms"},     // lib NewDryRun/Apply/Undo
	{"view.apply_ms", "ms"},          // lib ApplyAndPersistStaged: start → onApplied
	{"view.persist_ms", "ms"},        // …onApplied → return
	{"view.compact_ms", "ms"},        // lib view.CompactCatalog on a 16-segment chain
	{"summary.build_ms", "ms"},       // lib summary.Build
	{"view.build_store_ms", "ms"},    // lib view.BuildStore
	{"view.open_ms", "ms"},           // lib view.OpenStoreWithCatalog
	{"store.decode_ms", "ms"},        // lib store.ReadFileZones, largest segment

	{"serve.plan_hit_ratio", "ratio"},         // scrape
	{"serve.rewrites_run", "count"},           // scrape
	{"algebra.blocks_skipped_ratio", "ratio"}, // scrape
	{"serve.queue_wait_ms", "ms"},             // scrape, mean
	{"serve.group_size_mean", "count"},        // scrape
	{"serve.compactions", "count"},            // scrape
	{"store.delta_bytes_per_update", "B"},     // directory growth ÷ acked updates

	{"algebra.vec_share", "ratio"},       // resp exec_path == vectorized
	{"serve.response_bytes_p50", "B"},    // resp
	{"serve.unattributed_scan_ms", "ms"}, // end-to-end p50 − Σ lib medians, per query class
	{"serve.unattributed_select_ms", "ms"},
	{"serve.unattributed_join_ms", "ms"},

	// Diagnostics.
	{"serve.query_p95_ms", "ms"}, // 0 unless ≥10 samples lie beyond
	{"serve.query_p99_ms", "ms"},
	{"serve.update_p50_ms", "ms"}, // mixed_rw's paced writer is only visible here
	{"serve.update_p95_ms", "ms"},
	{"serve.update_p99_ms", "ms"},
	{"bench.open_loop_late_ms", "ms"},       // mean generator lateness
	{"bench.trace_overhead_ratio", "ratio"}, // span recording cost ÷ traced-pass time
}

// metricValue is one emitted number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit turns computed values into the output map and reports any name that
// is missing or not in defs: the metric tables are the contract.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	return out, nil
}
