package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xmlviews/internal/xmltree"
)

const (
	// clients is the number of closed-loop clients (and keep-alive
	// connections): one per core of the 2-core sandbox the baseline was
	// taken on, which the daemon shares with this process.
	clients = 2
	// setUps is how often an untraced run sets up; setup_s is the median.
	setUps = 5
	// warmUp is the untimed lead-in on the real request stream, after the
	// pool's plans were primed.
	warmUp = 2 * time.Second
	// serialRounds is how many rounds (one shuffled block of the stream each) of uncontended reads a
	// traced run issues for the unattributed-time check.
	serialRounds = 3
	// updateInterval paces mixed_rw's open-loop writer at 2 updates/s.
	updateInterval = 500 * time.Millisecond
)

// runConfig selects one run: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     int64 // request stream
	docSeed  int64 // document
	seconds  int   // measured time
	trace    bool
	scale    int
	warmUp   time.Duration
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the run's full output record (bench/out/result-*.json): the
// result plus everything needed to read the numbers in context.
type record struct {
	Workload    string   `json:"workload"`
	Trace       bool     `json:"trace"`
	Commit      string   `json:"commit"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NProc       int      `json:"nproc"`
	Seed        int64    `json:"seed"`
	DocSeed     int64    `json:"doc_seed"`
	Scale       int      `json:"scale"`
	DaemonFlags []string `json:"daemon_flags"`
	Clients     int      `json:"closed_loop_clients"`
	WarmUpS     float64  `json:"warm_up_s"`
	MeasuredS   float64  `json:"measured_s"`
	TracedS     float64  `json:"traced_pass_s,omitempty"`
	SetUps      int      `json:"set_ups"`
	// Samples counts the timings behind each latency figure.
	Samples map[string]int `json:"samples"`
	// Classes breaks the measured operations down by request class.
	Classes map[string]classStats `json:"classes"`
	// TailSupported is false when fewer than ten samples lay beyond the
	// reported op_p90_ms: the number is then a fallback, not an estimate.
	TailSupported bool `json:"op_p90_supported"`
	// UnattributedShare is, per query class, the part of the end-to-end
	// median no timed layer call accounts for (HTTP, mux, instrumentation,
	// loopback); Unmeasured lists the classes where it exceeds a tenth.
	UnattributedShare map[string]float64 `json:"unattributed_share_of_p50,omitempty"`
	Unmeasured        []string           `json:"unmeasured_layer_classes,omitempty"`
	Errors            []string           `json:"first_errors,omitempty"`
	Caveat            string             `json:"caveat"`
	Result            *result            `json:"result"`
}

const sandboxCaveat = "daemon and load generator share one 2-core sandbox: latencies are the sandbox's, " +
	"and numbers from parallel code paths are not multicore numbers; reads are served from memory and fsyncs hit the OS cache"

// classStats summarizes one request class over the measured window.
type classStats struct {
	N         int     `json:"n"`
	P50MS     float64 `json:"p50_ms"`
	ColdShare float64 `json:"plan_miss_share"` // queries answered by a fresh rewriting search
}

func classBreakdown(rs []opResult) map[string]classStats {
	by := map[string][]opResult{}
	for _, r := range rs {
		by[r.req.class] = append(by[r.req.class], r)
	}
	out := map[string]classStats{}
	for class, group := range by {
		cold := 0
		for _, r := range group {
			if r.req.class != classUpdate && !r.planCached {
				cold++
			}
		}
		out[class] = classStats{N: len(group), P50MS: median(latenciesMS(group)),
			ColdShare: float64(cold) / float64(len(group))}
	}
	return out
}

// windowState collects what the daemon window produced.
type windowState struct {
	closed, open []opResult // measured and warm-up results alike
	probes       []opResult // priming and final verification reads
	serial       []opResult // trace runs: uncontended reads after the window
	elapsed      time.Duration
	cpu          float64 // daemon CPU seconds over the measured window
	before       scrape  // trace runs only
	after        scrape
	dirGrowth    int64
	baseItems    int  // item count at epoch 0
	mutated      bool // the workload updates the document
	// oracle holds the answers evaluated before the first update: the
	// document object is then mutated in place as the writers' shadow.
	oracle *oracle
	checks int // verification checks beyond the per-request ones
	errs   []error
}

func (ws *windowState) fail(err error) { ws.errs = append(ws.errs, err) }

// window returns every operation of the stream, warm-up included.
func (ws *windowState) window() []opResult {
	return append(append([]opResult(nil), ws.closed...), ws.open...)
}

// runWorkload performs one complete run: set up, warm up, measure, verify,
// and in trace mode replay the stream in-process.
func runWorkload(e *environment, cfg runConfig) (*result, error) {
	if !contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	measure := time.Duration(cfg.seconds) * time.Second
	nSetUps := setUps
	if cfg.trace {
		// A traced run splits its time between the daemon window, whose
		// scrapes and per-class medians the layer numbers are read
		// against, and the in-process replay.
		measure /= 2
		nSetUps = 1
	}

	// A fresh directory per run: a store left by an earlier run in this
	// process must not be mistaken for this one's.
	runDir, err := os.MkdirTemp(e.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	var st *site
	var setupS []float64
	for i := 0; i < nSetUps; i++ {
		if st != nil {
			if err := st.d.stop(); err != nil {
				return nil, fmt.Errorf("stopping daemon after set-up: %w", err)
			}
		}
		if st, err = setUp(e, filepath.Join(runDir, fmt.Sprintf("store-%d", i)), cfg.docSeed, cfg.scale); err != nil {
			return nil, err
		}
		setupS = append(setupS, st.setup.Seconds())
	}
	defer func() { _ = st.d.stop() }()
	docBytes, err := xmlBytes(st.doc)
	if err != nil {
		return nil, err
	}

	out, err := runWindow(st, cfg, measure)
	if err != nil {
		return nil, err
	}
	rss, err := st.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.checks += 2 // a clean stop, a store that reopens where the acks left it
	if err := st.d.stop(); err != nil {
		out.fail(fmt.Errorf("daemon did not stop cleanly: %w", err))
	}
	acks := newAckLog(out.window())
	if err := checkReopened(st.dir, acks.lastEpoch(), out.baseItems+acks.netAt(acks.lastEpoch())); err != nil {
		out.fail(err)
	}

	// Every answer is checked, warm-up and probes included; only measured
	// operations are timed.
	all := append(append(out.window(), out.probes...), out.serial...)
	for i := range all {
		r := &all[i]
		if r.req.class == classUpdate {
			if !r.ok() {
				out.fail(r.err)
			}
			continue
		}
		if err := out.oracle.checkQuery(r, acks); err != nil {
			out.fail(err)
		}
	}

	res := &result{Attempted: len(all) + out.checks, Failed: len(out.errs)}
	res.Correct = res.Failed == 0
	rec := newRecord(e, cfg, measure, nSetUps, res)
	for i, err := range out.errs {
		if i == 5 {
			break
		}
		rec.Errors = append(rec.Errors, err.Error())
	}

	primary := measured(out.closed)
	ops := len(primary) + len(measured(out.open))
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	lat := latenciesMS(primary)
	rec.Classes = classBreakdown(measured(out.window()))
	rec.Samples["op"] = len(lat)
	rec.Samples["setup"] = len(setupS)
	values := map[string]float64{}
	if cfg.trace {
		if values, err = layerMetrics(e, cfg, runDir, out, measure, rec); err != nil {
			return nil, err
		}
		res.Metrics, err = emit(perLayer, values)
	} else {
		p50, _ := percentile(lat, 0.5)
		p90, supported := percentile(lat, 0.9)
		rec.TailSupported = supported
		values["setup_s"] = median(setupS)
		values["ops_per_s"] = float64(ops) / out.elapsed.Seconds()
		values["op_p50_ms"] = p50
		values["op_p90_ms"] = p90
		values["rss_peak_mb"] = rss
		values["cpu_s_per_1k_ops"] = out.cpu / float64(ops) * 1000
		values["store_bytes_per_doc_byte"] = float64(st.storeLen) / float64(docBytes)
		res.Metrics, err = emit(endToEnd, values)
	}
	if err != nil {
		return nil, err
	}
	return res, writeRecord(e, rec)
}

// measured keeps the results that fall in the measured window and
// completed.
func measured(rs []opResult) []opResult {
	var out []opResult
	for _, r := range rs {
		if r.measured && r.ok() {
			out = append(out, r)
		}
	}
	return out
}

// latenciesMS returns the sorted latencies of rs in ms.
func latenciesMS(rs []opResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.lat) / 1e6
	}
	sort.Float64s(out)
	return out
}

func newRecord(e *environment, cfg runConfig, measure time.Duration, nSetUps int, res *result) *record {
	return &record{
		Workload: cfg.workload, Trace: cfg.trace,
		Commit: gitCommit(e.root), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: e.nproc,
		Seed: cfg.seed, DocSeed: cfg.docSeed, Scale: cfg.scale,
		DaemonFlags: e.daemonFlags("STORE_DIR"), Clients: clients,
		WarmUpS: cfg.warmUp.Seconds(), MeasuredS: measure.Seconds(), SetUps: nSetUps,
		Samples: map[string]int{}, Caveat: sandboxCaveat, Result: res,
	}
}

func writeRecord(e *environment, rec *record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if rec.Trace {
		mode = 1
	}
	name := fmt.Sprintf("result-%s-trace%d.json", rec.Workload, mode)
	return os.WriteFile(filepath.Join(e.outDir, name), append(data, '\n'), 0o644)
}

// runWindow drives one workload against the daemon: prime, warm up,
// measure, then the workload's final probes.
func runWindow(st *site, cfg runConfig, measure time.Duration) (*windowState, error) {
	oc := newOracle(st.doc)
	ws := &windowState{oracle: oc}
	items, err := oc.expect(itemScan)
	if err != nil {
		return nil, err
	}
	ws.baseItems = len(items.rows)
	c := newClient(st.d.base, clients)
	defer c.close()

	// Prime: every distinct pool request once, in order. The daemon caches
	// the pool's plans and the oracle evaluates the pool's answers while
	// the document is still the generated one.
	prime := func() error {
		for _, p := range warmPool {
			if _, err := oc.expect(p.query); err != nil {
				return err
			}
			ws.probes = append(ws.probes, c.do(p.request()))
		}
		return nil
	}

	var closed []generator
	var open generator
	roundLen := len(warmPool) // requests per shuffled block of the readers' stream
	switch cfg.workload {
	case warmRead:
		if err := prime(); err != nil {
			return nil, err
		}
		for i := 0; i < clients; i++ {
			closed = append(closed, newPoolGen(cfg.seed, i, warmPool))
		}
	case coldPlan:
		names := nameValues(st.doc)
		roundLen = len(coldTemplates)
		for i := 0; i < clients; i++ {
			closed = append(closed, newColdGen(cfg.seed, i, clients, names))
		}
	case writeStream:
		ws.mutated = true
		sh := &shadow{doc: st.doc}
		for i := 0; i < clients; i++ {
			g, err := newUpdateGen(cfg.seed, i, sh)
			if err != nil {
				return nil, err
			}
			closed = append(closed, g)
		}
	case mixedRW:
		ws.mutated = true
		if err := prime(); err != nil {
			return nil, err
		}
		closed = append(closed, newPoolGen(cfg.seed, 0, warmPool))
		g, err := newUpdateGen(cfg.seed, 1, &shadow{doc: st.doc})
		if err != nil {
			return nil, err
		}
		open = g
	}

	start := time.Now()
	w := window{measureFrom: start.Add(cfg.warmUp), until: start.Add(cfg.warmUp + measure)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.closed, ws.open = drive(c, closed, open, updateInterval, w)
	}()
	// The daemon's counters are read at the window's edges while the
	// clients keep running: warm-up work must not be billed to the window.
	time.Sleep(time.Until(w.measureFrom))
	cpu0, err0 := st.d.cpuSeconds()
	dir0, err1 := dirBytes(st.dir)
	if cfg.trace {
		ws.before, err = scrapeMetrics(st.d.base)
	}
	<-done
	ws.elapsed = time.Since(w.measureFrom)
	for _, e := range []error{err0, err1, err} {
		if e != nil {
			return nil, e
		}
	}
	cpu1, err := st.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ws.cpu = cpu1 - cpu0
	if cfg.trace {
		if ws.after, err = scrapeMetrics(st.d.base); err != nil {
			return nil, err
		}
	}
	dir1, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	ws.dirGrowth = dir1 - dir0

	if cfg.trace && cfg.workload != writeStream {
		// The reconciliation's end-to-end side: the reader's stream goes on
		// alone, one request at a time, so these latencies hold no wait
		// for a core another request occupies — the in-process replay they
		// are compared with has none either. On mixed_rw each round starts
		// with an update, which sends the round's plans cold again.
		for round := 0; round < serialRounds; round++ {
			if open != nil {
				ws.open = append(ws.open, c.do(open.next()))
			}
			for i := 0; i < roundLen; i++ {
				ws.serial = append(ws.serial, c.do(closed[0].next()))
			}
		}
	}

	if ws.mutated {
		// The daemon's item extents against the harness's shadow of the
		// document after every acked update: count by probe, rows by window.
		ws.probes = append(ws.probes, c.do(queryRequest(classCount, itemScan, 0, 0, true)))
		ws.checks++
		if err := checkFinalItems(c, st.doc); err != nil {
			ws.fail(err)
		}
	}
	return ws, nil
}

// checkFinalItems compares the daemon's item scan with a fresh evaluation
// over the shadow document: initial rows + acked inserts − acked deletes,
// with every settext applied.
func checkFinalItems(c *client, shadowDoc *xmltree.Document) error {
	req := queryRequest(classPage, itemScan, 50, 0, true)
	got := c.do(req)
	if !got.ok() {
		return got.err
	}
	want, err := evaluate(shadowDoc, itemScan)
	if err != nil {
		return err
	}
	if got.total != len(want.rows) {
		return fmt.Errorf("after the write stream: daemon has %d items, the shadow document %d", got.total, len(want.rows))
	}
	if got.window != want.window(req.limit, req.offset) {
		return fmt.Errorf("after the write stream: first item window differs from the shadow document's")
	}
	return nil
}
