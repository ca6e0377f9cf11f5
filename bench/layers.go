package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// layerMetrics runs the traced pass for one workload and computes every
// per-layer metric: lib metrics from the pass's spans, scrape and resp
// metrics from the daemon window that preceded it.
func layerMetrics(e *environment, cfg runConfig, runDir string, ws *windowState, budget time.Duration, rec *record) (map[string]float64, error) {
	t := newTracer()
	l, doc, err := buildLib(t, filepath.Join(runDir, "lib"), cfg.docSeed, cfg.scale, e.nproc)
	if err != nil {
		return nil, fmt.Errorf("traced pass set-up: %w", err)
	}
	queries, updates := splitByKind(measured(ws.window()))

	start := time.Now()
	until := start.Add(budget)
	id := 0
	step := func(f func(*tracer, int, *request) error, g generator) error {
		id++
		return f(t, id, g.next())
	}
	switch cfg.workload {
	case warmRead:
		g := newPoolGen(cfg.seed, 0, warmPool)
		for err == nil && time.Now().Before(until) {
			err = step(l.replayQuery, g)
		}
	case coldPlan:
		g := newColdGen(cfg.seed, 0, clients, nameValues(doc))
		for err == nil && time.Now().Before(until) {
			err = step(l.replayQuery, g)
		}
	case writeStream, mixedRW:
		if err = l.loadDocument(); err != nil {
			break
		}
		// mixed_rw interleaves reads with commits at the ratio the daemon
		// window saw, so the replayed reads are as cold as the served ones.
		var reads generator
		readsPerCommit, writer := 0, 0
		if cfg.workload == mixedRW {
			reads, writer = newPoolGen(cfg.seed, 0, warmPool), 1
			readsPerCommit = 1
			if len(updates) > 0 {
				readsPerCommit = int(math.Max(1, math.Round(float64(len(queries))/float64(len(updates)))))
			}
		}
		var writes generator
		if writes, err = newUpdateGen(cfg.seed, writer, &shadow{doc: doc}); err != nil {
			break
		}
		for err == nil && time.Now().Before(until) {
			if err = step(l.replayUpdate, writes); err == nil {
				err = l.compactIfDue(t)
			}
			for i := 0; err == nil && i < readsPerCommit; i++ {
				err = step(l.replayQuery, reads)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	traced := time.Since(start)
	rec.TracedS = traced.Seconds()
	if err := writeTrace(filepath.Join(e.outDir, "trace-"+cfg.workload+".json"), cfg.workload, cfg.seed, t); err != nil {
		return nil, err
	}

	med := func(name string) float64 {
		d := t.durations(name, nil)
		rec.Samples[name] = len(d)
		return median(d)
	}
	v := map[string]float64{
		"pattern.parse_us":       med("pattern.parse") * 1e3,
		"core.rewrite_ms":        med("core.rewrite"),
		"core.plans_explored":    median(t.counts["core.plans_explored"]),
		"core.rewrite_alloc_mb":  median(t.counts["core.rewrite_alloc_mb"]),
		"cost.pick_us":           med("cost.pick") * 1e3,
		"view.snapshot_us":       (med("view.snapshot") + med("view.release")) * 1e3,
		"algebra.exec_scan_ms":   median(t.durations("algebra.execute", ofClass(classScan, classPage, classCount))),
		"algebra.exec_select_ms": median(t.durations("algebra.execute", ofClass(classSelect))),
		"algebra.exec_join_ms":   median(t.durations("algebra.execute", ofClass(classJoin))),
		"serve.encode_sort_ms":   med("encode.sort"),
		"serve.encode_render_ms": med("encode.render"),
		"serve.encode_json_ms":   med("encode.json"),
		"maintain.parse_us":      med("maintain.parse") * 1e3,
		"maintain.dryrun_ms":     med("maintain.dryrun"),
		"view.apply_ms":          med("view.apply"),
		"view.persist_ms":        med("view.persist"),
		"view.compact_ms":        med("view.compact"),
		"summary.build_ms":       med("summary.build"),
		"view.build_store_ms":    med("view.build_store"),
		"view.open_ms":           med("view.open"),
		"store.decode_ms":        med("store.decode"),

		"bench.trace_overhead_ratio": spanCostNS() * float64(len(t.spans)) / float64(traced),
	}

	// Scrape: /metrics deltas over the daemon window.
	d := func(series string) float64 { return ws.after.delta(ws.before, series) }
	perCount := func(family string, scale float64) float64 {
		if n := d(family + "_count"); n > 0 {
			return d(family+"_sum") / n * scale
		}
		return 0
	}
	v["serve.plan_hit_ratio"] = ratio(d("xvserve_plan_cache_hits_total"), d("xvserve_plan_cache_misses_total"))
	v["serve.rewrites_run"] = d("xvserve_rewrites_run_total")
	v["algebra.blocks_skipped_ratio"] = ratio(d("xvserve_vec_blocks_skipped_total"), d("xvserve_vec_blocks_scanned_total"))
	v["serve.queue_wait_ms"] = perCount("xvserve_commit_queue_wait_seconds", 1e3)
	v["serve.group_size_mean"] = perCount("xvserve_commit_group_size", 1)
	v["serve.compactions"] = d("xvserve_compactions_total")
	// Bytes added to the directory per update: its growth plus what
	// compaction deleted meanwhile, so fresh delta segments and the base
	// segments compaction rewrote both count (the document file is
	// replaced in place and does not).
	v["store.delta_bytes_per_update"] = 0
	if len(updates) > 0 {
		v["store.delta_bytes_per_update"] = (float64(ws.dirGrowth) + d("xvserve_compact_reclaimed_bytes_total")) / float64(len(updates))
	}

	// Resp: read from the window's responses.
	var vec, late float64
	sizes := make([]float64, len(queries))
	for i, r := range queries {
		if r.vectorized {
			vec++
		}
		sizes[i] = float64(r.bytes)
	}
	v["algebra.vec_share"] = 0
	if len(queries) > 0 {
		v["algebra.vec_share"] = vec / float64(len(queries))
	}
	v["serve.response_bytes_p50"] = median(sizes)
	qlat, ulat := latenciesMS(queries), latenciesMS(updates)
	rec.Samples["query"], rec.Samples["update"] = len(qlat), len(ulat)
	v["serve.query_p95_ms"] = supportedPercentile(qlat, 0.95)
	v["serve.query_p99_ms"] = supportedPercentile(qlat, 0.99)
	v["serve.update_p50_ms"] = median(ulat)
	v["serve.update_p95_ms"] = supportedPercentile(ulat, 0.95)
	v["serve.update_p99_ms"] = supportedPercentile(ulat, 0.99)
	open := measured(ws.open)
	for _, r := range open {
		late += float64(r.late) / 1e6
	}
	v["bench.open_loop_late_ms"] = 0
	if len(open) > 0 {
		v["bench.open_loop_late_ms"] = late / float64(len(open))
	}

	// Reconciliation: what of a request's end-to-end median do the timed
	// layer calls not account for? Both sides are uncontended: the serial
	// reads issued after the window against the single-stream replay. It is
	// computed per request shape — requests of one shape do the same work —
	// on whichever of cold and warm dominated the shape (they differ by the
	// whole search), and a class reports the median over its shapes.
	type gap struct{ ms, share float64 }
	gaps := map[string][]gap{}
	for _, shape := range shapesOf(ws.serial) {
		var class string
		var cold, warm []opResult
		for _, r := range ws.serial {
			if r.req.shape != shape || !r.ok() {
				continue
			}
			class = r.req.class
			if r.planCached {
				warm = append(warm, r)
			} else {
				cold = append(cold, r)
			}
		}
		if len(cold)+len(warm) == 0 {
			continue
		}
		layers := []string{"pattern.parse", "view.snapshot", "algebra.execute",
			"encode.sort", "encode.render", "encode.json", "view.release"}
		group := warm
		if len(cold) > len(warm) {
			group = cold
			layers = append(layers, "core.rewrite", "cost.pick")
		}
		p50 := median(latenciesMS(group))
		var sum float64
		for _, name := range layers {
			sum += median(t.durations(name, ofShape(shape)))
		}
		gaps[class] = append(gaps[class], gap{p50 - sum, (p50 - sum) / p50})
	}
	rec.UnattributedShare = map[string]float64{}
	for _, class := range []string{classScan, classSelect, classJoin} {
		v["serve.unattributed_"+class+"_ms"] = 0
	}
	for class, gs := range gaps {
		var ms, shares []float64
		for _, g := range gs {
			ms, shares = append(ms, g.ms), append(shares, g.share)
		}
		rec.UnattributedShare[class] = median(shares)
		if median(shares) > 0.1 {
			rec.Unmeasured = append(rec.Unmeasured, class)
		}
		if _, gated := v["serve.unattributed_"+class+"_ms"]; gated {
			v["serve.unattributed_"+class+"_ms"] = median(ms)
		}
	}
	sort.Strings(rec.Unmeasured)
	return v, nil
}

// shapesOf lists the distinct request shapes of rs in first-seen order.
func shapesOf(rs []opResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rs {
		if !seen[r.req.shape] {
			seen[r.req.shape] = true
			out = append(out, r.req.shape)
		}
	}
	return out
}

// splitByKind separates query results from update acks.
func splitByKind(rs []opResult) (queries, updates []opResult) {
	for _, r := range rs {
		if r.req.class == classUpdate {
			updates = append(updates, r)
		} else {
			queries = append(queries, r)
		}
	}
	return queries, updates
}

// supportedPercentile is the percentile when at least minBeyond samples lie
// beyond it and 0 otherwise.
func supportedPercentile(sorted []float64, p float64) float64 {
	if v, ok := percentile(sorted, p); ok {
		return v
	}
	return 0
}
