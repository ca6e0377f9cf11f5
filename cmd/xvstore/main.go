// Command xvstore builds, maintains and inspects persistent view stores:
// directories of columnar segment files plus a catalog manifest, served by
// xvserve.
//
//	xvstore build -doc auction.xml -out store/ \
//	    -v 'V1=site(//item[id](/name[v]))' -v 'V2=site(//name[id,v])'
//	xvstore apply -dir store/ -u '{"op":"insert","parent":"1","subtree":"item(name \"x\")"}'
//	xvstore apply -dir store/ -f updates.json
//	xvstore compact -dir store/
//	xvstore info -dir store/
//	xvstore stats -addr localhost:8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/maintain"
	"xmlviews/internal/obs"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

type viewFlags []string

func (v *viewFlags) String() string     { return strings.Join(*v, "; ") }
func (v *viewFlags) Set(s string) error { *v = append(*v, s); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xvstore:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: xvstore build|apply|compact|info|stats [flags]")
	}
	switch args[0] {
	case "build":
		return runBuild(args[1:], stdout)
	case "apply":
		return runApply(args[1:], stdout)
	case "compact":
		return runCompact(args[1:], stdout)
	case "info":
		return runInfo(args[1:], stdout)
	case "stats":
		return runStats(args[1:], stdout)
	}
	return fmt.Errorf("unknown subcommand %q (want build, apply, compact, info or stats)", args[0])
}

func runBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvstore build", flag.ContinueOnError)
	fs.SetOutput(stdout)
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
	f, err := os.Open(*docFile)
	if err != nil {
		return err
	}
	doc, perr := xmltree.ParseXML(f)
	f.Close()
	if perr != nil {
		return perr
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
		fmt.Fprintf(stdout, "%s: %d rows, %d bytes (%s)\n", e.Name, e.Rows, e.Bytes, e.Segment)
		total += e.Bytes
	}
	fmt.Fprintf(stdout, "wrote %d view(s), %d bytes total, summary hash %s\n",
		len(cat.Views), total, cat.SummaryHash[:12])
	return nil
}

func runApply(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvstore apply", flag.ContinueOnError)
	fs.SetOutput(stdout)
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
		if data, err = io.ReadAll(os.Stdin); err != nil {
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
	for _, c := range res.Changed {
		fmt.Fprintf(stdout, "%s: +%d -%d rows (now %d)\n", c.Name, c.Adds, c.Dels, c.Rows)
	}
	fmt.Fprintf(stdout, "applied %d update(s): %d view(s) changed, %d unaffected; epoch %d\n",
		len(updates), len(res.Changed), res.Skipped, res.Epoch)
	return nil
}

func runCompact(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvstore compact", flag.ContinueOnError)
	fs.SetOutput(stdout)
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
	fmt.Fprintf(stdout, "checkpoint at epoch %d: wrote %d file(s), %d byte(s); removed %d superseded file(s), reclaimed %d byte(s)\n",
		cat.Epoch, res.FilesWritten, res.BytesWritten, res.FilesRemoved, res.BytesReclaimed)
	return nil
}

func runInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvstore info", flag.ContinueOnError)
	fs.SetOutput(stdout)
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
		fmt.Fprintf(stdout, "document: %s\n", cat.Document)
	}
	fmt.Fprintf(stdout, "summary hash: %s\n", cat.SummaryHash)
	fmt.Fprintf(stdout, "epoch: %d\n", cat.Epoch)
	// What a restart reads back: the base segments and the document as of
	// the base epoch, then the log's records for the epochs after it (the
	// catalog epoch is the durable one).
	fmt.Fprintf(stdout, "base epoch: %d\n", cat.DocEpoch)
	if cat.DocSegment != "" {
		fmt.Fprintf(stdout, "document checkpoint: %s (epoch %d)\n", cat.DocSegment, cat.DocEpoch)
		recs, valid, tail, err := store.ReadUpdateLog(*dir)
		switch {
		case err != nil:
			fmt.Fprintf(stdout, "update log: unreadable (%v)\n", err)
		case cat.Epoch == cat.DocEpoch:
			fmt.Fprintf(stdout, "update log: %d record(s), %d byte(s), nothing to replay\n", len(recs), valid)
		default:
			fmt.Fprintf(stdout, "update log: %d record(s), %d byte(s), replayed for epochs %d..%d\n",
				len(recs), valid, cat.DocEpoch+1, cat.Epoch)
		}
		if tail != nil {
			fmt.Fprintf(stdout, "  followed by an unacknowledged tail the next update drops: %v\n", tail)
		}
	}
	// info is a diagnostic tool: an unparseable summary (suspect or
	// newer-format store) must not hide the rest of the catalog.
	switch sum, err := summary.Parse(cat.Summary); {
	case err != nil:
		fmt.Fprintf(stdout, "statistics: unavailable (catalog summary does not parse: %v)\n", err)
	case sum.HasStats():
		fmt.Fprintf(stdout, "statistics: %d summary node(s), %d document node(s), %d text byte(s)\n",
			sum.Size(), sum.DocNodes(), sum.TextBytes())
		if *showStats {
			for _, id := range sum.NodeIDs() {
				n := sum.Node(id)
				fmt.Fprintf(stdout, "  %s: %d node(s), avg fanout %.2f, avg text %.1fB\n",
					sum.PathString(id), n.Count, sum.AvgFanout(id), sum.AvgTextBytes(id))
			}
		}
	default:
		fmt.Fprintln(stdout, "statistics: none (store built before statistics; cost model uses uniform estimates)")
	}
	for _, e := range cat.Views {
		fmt.Fprintf(stdout, "%s: %s — %d rows, base %s (%d bytes), columns %s\n",
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

// runStats scrapes a live xvserve daemon: the /stats JSON counters plus
// per-phase latency quantiles estimated from the /metrics histograms.
func runStats(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvstore stats", flag.ContinueOnError)
	fs.SetOutput(stdout)
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
	get := func(path string) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
		}
		return body, nil
	}
	if *raw {
		body, err := get("/metrics")
		if err != nil {
			return err
		}
		_, err = stdout.Write(body)
		return err
	}
	statsBody, err := get("/stats")
	if err != nil {
		return err
	}
	var stats map[string]any
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		return fmt.Errorf("decoding /stats: %w", err)
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "%s: %v\n", k, stats[k])
	}
	metricsBody, err := get("/metrics")
	if err != nil {
		return err
	}
	hists, err := obs.ParseHistograms(metricsBody)
	if err != nil {
		return fmt.Errorf("parsing /metrics: %w", err)
	}
	fmt.Fprintln(stdout, "\nphase latencies (from histogram buckets):")
	for _, q := range statsQuantiles {
		h, ok := hists[q.metric]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-17s n=%-7d p50=%-10s p90=%-10s p99=%s\n",
			q.label, h.Count,
			quantileString(h, 0.50), quantileString(h, 0.90), quantileString(h, 0.99))
	}
	// Group-commit batching: the group-size histogram counts requests per
	// committed group (a size distribution, not a latency).
	if h, ok := hists["xvserve_commit_group_size"]; ok && h.Count > 0 {
		fmt.Fprintf(stdout, "\ncommit groups: n=%d size p50=%s p90=%s p99=%s\n",
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

func parseViews(defs []string) ([]*core.View, error) {
	var views []*core.View
	for _, def := range defs {
		name, src, ok := strings.Cut(def, "=")
		if !ok {
			return nil, fmt.Errorf("view definition %q is not name=pattern", def)
		}
		p, err := pattern.Parse(src)
		if err != nil {
			return nil, err
		}
		views = append(views, &core.View{Name: name, Pattern: p, DerivableParentIDs: true})
	}
	return views, nil
}
