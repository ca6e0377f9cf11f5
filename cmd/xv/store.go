package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"xmlviews/internal/maintain"
	"xmlviews/internal/obs"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
)

// runBuild materializes views over a document into a new store directory.
func runBuild(c cli, args []string) error {
	fs := c.flags("build")
	docFile := fs.String("doc", "", "XML document to materialize the views over")
	out := fs.String("out", "", "store directory to create")
	var vdefs viewFlags
	fs.Var(&vdefs, "v", "view definition name=pattern (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *docFile == "" || *out == "" || len(vdefs) == 0 {
		return fmt.Errorf("build needs -doc, -out and at least one -v")
	}
	doc, err := c.readDocument(*docFile)
	if err != nil {
		return err
	}
	doc.Name = *docFile
	views, err := parseViews(vdefs)
	if err != nil {
		return err
	}
	cat, err := view.BuildStore(*out, doc, views)
	if err != nil {
		return err
	}
	var total int64
	for _, e := range cat.Views {
		fmt.Fprintf(c.stdout, "%s: %d rows, %d bytes (%s)\n", e.Name, e.Rows, e.Bytes, e.Segment)
		total += e.Bytes
	}
	fmt.Fprintf(c.stdout, "wrote %d view(s), %d bytes total, summary hash %s\n",
		len(cat.Views), total, cat.SummaryHash[:12])
	return nil
}

// runApply commits one update batch to a store directory offline.
func runApply(c cli, args []string) error {
	fs := c.flags("apply")
	dir := fs.String("dir", "", "store directory")
	file := fs.String("f", "", "JSON file holding the update batch ('-' for stdin)")
	var inline viewFlags
	fs.Var(&inline, "u", "one JSON update object (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || (*file == "" && len(inline) == 0) || (*file != "" && len(inline) > 0) {
		return fmt.Errorf("apply needs -dir and either -f or one or more -u")
	}
	var data []byte
	switch {
	case *file == "-":
		var err error
		if data, err = io.ReadAll(c.stdin); err != nil {
			return err
		}
	case *file != "":
		var err error
		if data, err = os.ReadFile(*file); err != nil {
			return err
		}
	default:
		data = []byte("[" + strings.Join(inline, ",") + "]")
	}
	updates, err := maintain.ParseUpdates(data)
	if err != nil {
		return err
	}
	res, err := view.UpdateStore(*dir, updates)
	if err != nil {
		return err
	}
	for _, ch := range res.Changed {
		fmt.Fprintf(c.stdout, "%s: +%d -%d rows (now %d)\n", ch.Name, ch.Adds, ch.Dels, ch.Rows)
	}
	fmt.Fprintf(c.stdout, "applied %d update(s): %d view(s) changed, %d unaffected; epoch %d\n",
		len(updates), len(res.Changed), res.Skipped, res.Epoch)
	return nil
}

// runCompact runs a store's checkpoint offline.
func runCompact(c cli, args []string) error {
	fs := c.flags("compact")
	dir := fs.String("dir", "", "store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("compact needs -dir")
	}
	cat, err := store.OpenCatalog(*dir)
	if err != nil {
		return err
	}
	res, err := view.CompactCatalog(*dir, cat)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "checkpoint at epoch %d: wrote %d file(s), %d byte(s); removed %d superseded file(s), reclaimed %d byte(s)\n",
		cat.Epoch, res.FilesWritten, res.BytesWritten, res.FilesRemoved, res.BytesReclaimed)
	return nil
}

// runInfo describes a store directory: catalog, epochs, update log,
// statistics and views.
func runInfo(c cli, args []string) error {
	fs := c.flags("info")
	dir := fs.String("dir", "", "store directory")
	showStats := fs.Bool("stats", false, "list per-path cardinality statistics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("info needs -dir")
	}
	cat, err := store.OpenCatalog(*dir)
	if err != nil {
		return err
	}
	if cat.Document != "" {
		fmt.Fprintf(c.stdout, "document: %s\n", cat.Document)
	}
	fmt.Fprintf(c.stdout, "summary hash: %s\n", cat.SummaryHash)
	fmt.Fprintf(c.stdout, "epoch: %d\n", cat.Epoch)
	// What a restart reads back: the base segments and the document as of
	// the base epoch, then the log's records for the epochs after it (the
	// catalog epoch is the durable one).
	fmt.Fprintf(c.stdout, "base epoch: %d\n", cat.DocEpoch)
	if cat.DocSegment != "" {
		fmt.Fprintf(c.stdout, "document checkpoint: %s (epoch %d)\n", cat.DocSegment, cat.DocEpoch)
		recs, valid, tail, err := store.ReadUpdateLog(*dir)
		switch {
		case err != nil:
			fmt.Fprintf(c.stdout, "update log: unreadable (%v)\n", err)
		case cat.Epoch == cat.DocEpoch:
			fmt.Fprintf(c.stdout, "update log: %d record(s), %d byte(s), nothing to replay\n", len(recs), valid)
		default:
			fmt.Fprintf(c.stdout, "update log: %d record(s), %d byte(s), replayed for epochs %d..%d\n",
				len(recs), valid, cat.DocEpoch+1, cat.Epoch)
		}
		if tail != nil {
			fmt.Fprintf(c.stdout, "  followed by an unacknowledged tail the next update drops: %v\n", tail)
		}
	}
	// info is a diagnostic tool: an unparseable summary (suspect or
	// newer-format store) must not hide the rest of the catalog.
	switch sum, err := summary.Parse(cat.Summary); {
	case err != nil:
		fmt.Fprintf(c.stdout, "statistics: unavailable (catalog summary does not parse: %v)\n", err)
	case sum.HasStats():
		fmt.Fprintf(c.stdout, "statistics: %d summary node(s), %d document node(s), %d text byte(s)\n",
			sum.Size(), sum.DocNodes(), sum.TextBytes())
		if *showStats {
			for _, id := range sum.NodeIDs() {
				n := sum.Node(id)
				fmt.Fprintf(c.stdout, "  %s: %d node(s), avg fanout %.2f, avg text %.1fB\n",
					sum.PathString(id), n.Count, sum.AvgFanout(id), sum.AvgTextBytes(id))
			}
		}
	default:
		fmt.Fprintln(c.stdout, "statistics: none (store built before statistics; cost model uses uniform estimates)")
	}
	for _, e := range cat.Views {
		fmt.Fprintf(c.stdout, "%s: %s — %d rows, base %s (%d bytes), columns %s\n",
			e.Name, e.Pattern, e.Rows, e.Segment, e.Bytes, strings.Join(e.Columns, ","))
	}
	return nil
}

// statsQuantiles lists the phase histograms the stats summary reports,
// in display order.
var statsQuantiles = []struct{ metric, label string }{
	{"xvserve_rewrite_seconds", "rewrite"},
	{"xvserve_cost_seconds", "cost"},
	{"xvserve_snapshot_seconds", "snapshot"},
	{"xvserve_exec_seconds", "exec"},
	{"xvserve_encode_seconds", "encode"},
	{"xvserve_maintain_seconds", "maintain"},
	{"xvserve_maintain_apply_seconds", "maintain/apply"},
	{"xvserve_maintain_persist_seconds", "maintain/persist"},
	{"xvserve_commit_queue_wait_seconds", "commit/queue-wait"},
	{"xvserve_doc_checkpoint_seconds", "checkpoint"},
}

// runStats scrapes a live xvserve daemon's /metrics once: every
// unlabelled xvserve_* sample, the plan-cache hit rate, and per-phase
// latency quantiles estimated from the histograms.
func runStats(c cli, args []string) error {
	fs := c.flags("stats")
	addr := fs.String("addr", "localhost:8080", "address (or base URL) of a running xvserve")
	raw := fs.Bool("metrics", false, "dump the raw Prometheus exposition instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if *raw {
		_, err = c.stdout.Write(body)
		return err
	}
	samples, err := obs.ParseSamples(body)
	if err != nil {
		return fmt.Errorf("parsing /metrics: %w", err)
	}
	var names []string
	for name := range samples {
		if strings.HasPrefix(name, "xvserve_") && !strings.Contains(name, "{") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(c.stdout, "%s: %s\n", name, strconv.FormatFloat(samples[name], 'f', -1, 64))
	}
	hits, misses := samples["xvserve_plan_cache_hits_total"], samples["xvserve_plan_cache_misses_total"]
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	fmt.Fprintf(c.stdout, "plan hit rate: %.3f\n", rate)
	hists, err := obs.ParseHistograms(body)
	if err != nil {
		return fmt.Errorf("parsing /metrics: %w", err)
	}
	fmt.Fprintln(c.stdout, "\nphase latencies (from histogram buckets):")
	for _, q := range statsQuantiles {
		h, ok := hists[q.metric]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(c.stdout, "  %-17s n=%-7d p50=%-10s p90=%-10s p99=%s\n",
			q.label, h.Count,
			quantileString(h, 0.50), quantileString(h, 0.90), quantileString(h, 0.99))
	}
	// Group-commit batching: the group-size histogram counts requests per
	// committed group (a size distribution, not a latency).
	if h, ok := hists["xvserve_commit_group_size"]; ok && h.Count > 0 {
		fmt.Fprintf(c.stdout, "\ncommit groups: n=%d size p50=%s p90=%s p99=%s\n",
			h.Count, sizeString(h, 0.50), sizeString(h, 0.90), sizeString(h, 0.99))
	}
	return nil
}

// sizeString renders a quantile of a count-valued histogram (group sizes)
// as an integer: the bucket interpolation yields fractions, but sizes are
// whole requests, so round up to the containing integer. Overflow bounds
// are floors, as in quantileString.
func sizeString(h obs.HistogramSnapshot, q float64) string {
	v, overflow := h.QuantileBound(q)
	s := strconv.FormatFloat(math.Ceil(v), 'f', -1, 64)
	if overflow {
		return ">" + s
	}
	return s
}

func quantileString(h obs.HistogramSnapshot, q float64) string {
	v, overflow := h.QuantileBound(q)
	s := time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	if overflow {
		// The rank fell in the +Inf bucket: the bound is a floor, not an
		// estimate.
		return ">" + s
	}
	return s
}
