package serve

import (
	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/obs"
)

// metricsSet bundles every metric family the daemon maintains, registered
// on one obs.Registry that GET /metrics exposes. The /stats JSON body is
// derived from the same instruments, so the two endpoints can never
// disagree about a count.
type metricsSet struct {
	// Per-route request counts by final status code; the instrument
	// middleware observes every response, so error-rate dashboards need no
	// separate error series per route.
	httpRequests *obs.CounterVec // labels: path, code
	// viewReads counts, per stored view, how many times an executed plan
	// scanned it — the access pattern view selection tools want.
	viewReads *obs.CounterVec // label: view
	// vecKernels counts vectorized kernel executions by kernel name
	// (select_label, select_value, join_prune); vecBlocksScanned and
	// vecBlocksSkipped count zone-map consultations, so the skip ratio is
	// observable per deployment.
	vecKernels       *obs.CounterVec // label: kernel
	vecBlocksScanned *obs.Counter
	vecBlocksSkipped *obs.Counter

	// Query-path counters (the former /stats atomics).
	queries     *obs.Counter
	rewritesRun *obs.Counter
	clientsGone *obs.Counter
	errors      *obs.Counter
	planHits    *obs.Counter
	planMisses  *obs.Counter
	rowsServed  *obs.Counter

	// Update-path counters. groupCommits counts committed groups (one
	// epoch each); updates counts the member requests, so
	// updates/groupCommits is the realized batching factor.
	updates       *obs.Counter
	tuplesAdded   *obs.Counter
	tuplesDeleted *obs.Counter
	invalidations *obs.Counter
	groupCommits  *obs.Counter

	// Compaction counters.
	compactions      *obs.Counter
	compactFolded    *obs.Counter
	compactReclaimed *obs.Counter
	compactErrors    *obs.Counter

	// Document-checkpoint counters: checkpoints that folded the update log
	// into a fresh document segment, and attempts that failed (retried
	// after the next group).
	checkpoints      *obs.Counter
	checkpointErrors *obs.Counter

	// Per-phase latency histograms, in seconds. rewriteSeconds observes
	// only requests that ran or directly hit a search (singleflight
	// followers are excluded, mirroring the /stats rewrite time); the
	// maintain family splits the end-to-end batch latency into the
	// in-memory apply and the disk persist.
	rewriteSeconds  *obs.Histogram
	costSeconds     *obs.Histogram
	snapshotSeconds *obs.Histogram
	execSeconds     *obs.Histogram
	encodeSeconds   *obs.Histogram
	maintainSeconds *obs.Histogram
	applySeconds    *obs.Histogram
	persistSeconds  *obs.Histogram
	compactSeconds  *obs.Histogram
	// checkpointSeconds observes document checkpoints: like compaction a
	// committer step after a group's acks, so updates queue behind it.
	checkpointSeconds *obs.Histogram
	// Group-commit instruments: how many requests each committed group
	// merged (a size distribution, not a latency), and how long requests
	// waited in the commit queue before their group sealed.
	groupSize *obs.Histogram
	queueWait *obs.Histogram

	// Delta-chain gauges, refreshed after every update and compaction.
	maxChain   *obs.Gauge
	deltaBytes *obs.Gauge

	// Durability gauges, written by the committer. durableEpoch is the last
	// epoch whose catalog rename completed: xvserve_epoch runs ahead of it
	// for the length of one persist (visibility before durability).
	// docEpoch is the epoch of the document checkpoint; the update log
	// carries the logRecords epochs between it and durableEpoch in logBytes
	// bytes.
	durableEpoch *obs.Gauge
	docEpoch     *obs.Gauge
	logRecords   *obs.Gauge
	logBytes     *obs.Gauge
}

func newMetricsSet(r *obs.Registry) *metricsSet {
	return &metricsSet{
		httpRequests: r.CounterVec("xvserve_http_requests_total",
			"HTTP requests served, by route and status code.", "path", "code"),
		viewReads: r.CounterVec("xvserve_view_reads_total",
			"Materialized-view scans by executed plans, per view.", "view"),
		vecKernels: r.CounterVec("xvserve_vec_kernels_total",
			"Vectorized kernel executions, by kernel.", "kernel"),
		vecBlocksScanned: r.Counter("xvserve_vec_blocks_scanned_total",
			"Zone-map blocks the vectorized path scanned row-wise."),
		vecBlocksSkipped: r.Counter("xvserve_vec_blocks_skipped_total",
			"Zone-map blocks the vectorized path skipped without touching rows."),

		queries:     r.Counter("xvserve_queries_total", "Queries received on /query."),
		rewritesRun: r.Counter("xvserve_rewrites_run_total", "Rewriting searches actually run (cache hits and singleflight followers excluded)."),
		clientsGone: r.Counter("xvserve_client_disconnects_total", "Requests whose client disconnected before the answer (HTTP 499)."),
		errors:      r.Counter("xvserve_errors_total", "Requests answered with an error status (client disconnects excluded)."),
		planHits:    r.Counter("xvserve_plan_cache_hits_total", "Plan cache hits, including singleflight followers."),
		planMisses:  r.Counter("xvserve_plan_cache_misses_total", "Plan cache misses that led a rewriting search."),
		rowsServed:  r.Counter("xvserve_rows_served_total", "Result rows rendered into /query responses."),

		updates:       r.Counter("xvserve_updates_applied_total", "Update batches applied."),
		tuplesAdded:   r.Counter("xvserve_tuples_added_total", "Tuples added to view extents by updates."),
		tuplesDeleted: r.Counter("xvserve_tuples_deleted_total", "Tuples deleted from view extents by updates."),
		invalidations: r.Counter("xvserve_cache_invalidations_total", "Epoch advances that dropped the plan and subsume caches (the summary's shape changed)."),
		groupCommits:  r.Counter("xvserve_group_commits_total", "Committed update groups (one epoch, one fsync each)."),

		compactions:      r.Counter("xvserve_compactions_total", "Online compaction runs that folded at least one chain."),
		compactFolded:    r.Counter("xvserve_compact_segments_folded_total", "Delta segments folded into base segments."),
		compactReclaimed: r.Counter("xvserve_compact_reclaimed_bytes_total", "Bytes of superseded segment files deleted by compaction."),
		compactErrors:    r.Counter("xvserve_compact_errors_total", "Failed online compaction attempts."),

		checkpoints:      r.Counter("xvserve_doc_checkpoints_total", "Document checkpoints written (update log folded into a fresh document segment)."),
		checkpointErrors: r.Counter("xvserve_doc_checkpoint_errors_total", "Failed document checkpoint attempts."),

		rewriteSeconds:  r.Histogram("xvserve_rewrite_seconds", "Rewrite phase latency: plan-cache lookup plus search when one ran.", nil),
		costSeconds:     r.Histogram("xvserve_cost_seconds", "Cost estimation latency: picking the cheapest of the enumerated rewritings.", nil),
		snapshotSeconds: r.Histogram("xvserve_snapshot_seconds", "Epoch snapshot latency: freezing summary, caches and extents.", nil),
		execSeconds:     r.Histogram("xvserve_exec_seconds", "Plan execution latency (completed executions only).", nil),
		encodeSeconds:   r.Histogram("xvserve_encode_seconds", "Response encoding latency: sorting, windowing and rendering result rows.", nil),
		maintainSeconds: r.Histogram("xvserve_maintain_seconds", "End-to-end update batch latency: apply, persist and cache swap.", nil),
		applySeconds:    r.Histogram("xvserve_maintain_apply_seconds", "In-memory maintenance latency of update batches (diff + splice).", nil),
		persistSeconds:  r.Histogram("xvserve_maintain_persist_seconds", "Disk persistence latency of update batches (delta files, update-log record, catalog).", nil),
		compactSeconds:  r.Histogram("xvserve_compact_seconds", "Online compaction latency (a committer step; updates queue behind it).", nil),
		checkpointSeconds: r.Histogram("xvserve_doc_checkpoint_seconds",
			"Document checkpoint latency (a committer step; updates queue behind it).", nil),
		groupSize: r.Histogram("xvserve_commit_group_size", "Requests merged per committed group.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		queueWait: r.Histogram("xvserve_commit_queue_wait_seconds", "Time update requests waited in the commit queue before their group sealed.", nil),

		maxChain:   r.Gauge("xvserve_max_delta_chain", "Longest per-view delta chain, in segments."),
		deltaBytes: r.Gauge("xvserve_delta_bytes", "Total size of all delta segments, in bytes."),

		durableEpoch: r.Gauge("xvserve_durable_epoch", "Last epoch whose catalog write completed; xvserve_epoch is ahead of it while a persist is in flight."),
		docEpoch:     r.Gauge("xvserve_doc_epoch", "Epoch of the document checkpoint the catalog names."),
		logRecords:   r.Gauge("xvserve_update_log_records", "Epochs the update log carries past the document checkpoint."),
		logBytes:     r.Gauge("xvserve_update_log_bytes", "Size of the update log, in bytes."),
	}
}

// observeExecStats folds one completed execution's vectorized-path
// counters into the metric families.
func (m *metricsSet) observeExecStats(xs *algebra.ExecStats) {
	if xs.VecSelectLabel > 0 {
		m.vecKernels.With("select_label").Add(int64(xs.VecSelectLabel))
	}
	if xs.VecSelectValue > 0 {
		m.vecKernels.With("select_value").Add(int64(xs.VecSelectValue))
	}
	if xs.VecJoinPrunes > 0 {
		m.vecKernels.With("join_prune").Add(int64(xs.VecJoinPrunes))
	}
	m.vecBlocksScanned.Add(int64(xs.BlocksScanned))
	m.vecBlocksSkipped.Add(int64(xs.BlocksSkipped))
}

// scannedViews walks an executed plan and calls f once per OpScan leaf with
// the scanned view's name (a view joined against itself is counted twice:
// the counter measures scans, not distinct views).
func scannedViews(p *core.Plan, f func(name string)) {
	if p == nil {
		return
	}
	switch p.Op {
	case core.OpScan:
		if p.View != nil {
			f(p.View.Name)
		}
	case core.OpJoin:
		scannedViews(p.Left, f)
		scannedViews(p.Right, f)
	case core.OpUnion:
		for _, part := range p.Parts {
			scannedViews(part, f)
		}
	default:
		scannedViews(p.Input, f)
	}
}
