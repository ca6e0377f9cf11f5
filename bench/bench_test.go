package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"xmlviews/internal/datagen"
	"xmlviews/internal/maintain"
	"xmlviews/internal/xmltree"
)

// testScale keeps documents small: 6 regions of 5 items.
const testScale = 5

// streamBytes pulls n requests from a generator and concatenates their wire
// images.
func streamBytes(g generator, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.Write(g.next().bytes())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamsAreFunctionsOfTheSeed(t *testing.T) {
	names := nameValues(datagen.XMark(testScale, 1))
	streams := map[string]func(seed int64) generator{
		"pool": func(seed int64) generator { return newPoolGen(seed, 0, warmPool) },
		"cold": func(seed int64) generator { return newColdGen(seed, 1, clients, names) },
		"update": func(seed int64) generator {
			g, err := newUpdateGen(seed, 0, &shadow{doc: datagen.XMark(testScale, 1)})
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	for name, mk := range streams {
		a, b, c := streamBytes(mk(7), 300), streamBytes(mk(7), 300), streamBytes(mk(8), 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different request streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request stream", name)
		}
	}
}

func TestColdKeysNeverRepeatAcrossClients(t *testing.T) {
	names := nameValues(datagen.XMark(testScale, 1))
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		g := newColdGen(3, c, clients, names)
		for i := 0; i < 2500; i++ {
			q := g.next().query
			if seen[q] {
				t.Fatalf("query %s issued twice: cold_plan must never hit the plan cache", q)
			}
			seen[q] = true
		}
	}
	if len(seen) < 4096 {
		t.Fatalf("%d distinct keys, want at least 4096 (16x the plan cache)", len(seen))
	}
}

func TestPoolBlocksHoldEverySlotOnce(t *testing.T) {
	g := newPoolGen(1, 0, warmPool)
	for block := 0; block < 20; block++ {
		count := map[string]int{}
		for i := 0; i < len(warmPool); i++ {
			count[g.next().target]++
		}
		if len(count) != len(warmPool) {
			t.Fatalf("block %d holds %d distinct requests, want %d", block, len(count), len(warmPool))
		}
	}
}

// The wire requests alone must reproduce the shadow document: that is what
// makes the identifiers a writer computes the ones the daemon allocates.
func TestUpdateStreamReplaysToTheShadow(t *testing.T) {
	sh := &shadow{doc: datagen.XMark(testScale, 1)}
	replica := datagen.XMark(testScale, 1)
	gens := make([]generator, clients)
	for c := range gens {
		g, err := newUpdateGen(5, c, sh)
		if err != nil {
			t.Fatal(err)
		}
		gens[c] = g
	}
	kinds := map[xmltree.UpdateKind]int{}
	for i := 0; i < 400; i++ {
		req := gens[i%clients].next()
		ups, err := maintain.ParseUpdates(req.body)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			kinds[u.Kind]++
			if _, err := replica.ApplyUpdate(u); err != nil {
				t.Fatalf("request %d does not apply to a replica: %v", i, err)
			}
		}
	}
	if got, want := replica.Root.String(), sh.doc.Root.String(); got != want {
		t.Fatal("replaying the request bodies does not reproduce the shadow document")
	}
	for _, k := range []xmltree.UpdateKind{xmltree.UpdateInsert, xmltree.UpdateDelete, xmltree.UpdateSetValue} {
		if kinds[k] < 50 {
			t.Errorf("only %d %s updates in 400", kinds[k], k)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{100, 0.9, 90, true},    // ranks 91..100 lie beyond
		{99, 0.9, 90, false},    // only 9 do
		{21, 0.5, 11, true},     // ranks 12..21
		{20, 0.5, 10, true},     // ranks 11..20
		{19, 0.5, 10, false},    // ranks 11..19
		{1000, 0.99, 990, true}, // ranks 991..1000
		{999, 0.99, 990, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.supported)
		}
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of nothing = %g, %v", v, ok)
	}
	if got := supportedPercentile(seq(99), 0.9); got != 0 {
		t.Errorf("unsupported percentile reported as %g, want 0", got)
	}
}

// The spread -repeat prints must be the one the acceptance check computes
// with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 9.5},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

// fakeClock is virtual time for the open-loop test.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	service := []time.Duration{10 * ms, 250 * ms, 10 * ms, 10 * ms, 10 * ms}
	k := 0
	do := func(req *request) opResult {
		d := service[k]
		k++
		clk.now = clk.now.Add(d)
		return opResult{req: req, lat: d, status: 200}
	}
	w := window{measureFrom: start.Add(200 * ms), until: start.Add(500 * ms)}
	got := runOpen(clk, do, newPoolGen(1, 0, warmPool), start, 100*ms, w)
	// Request 1 stalls for 250ms: request 2 (due at 200) goes out at 350,
	// request 3 (due at 300) at 360; request 4 is on time again.
	want := []struct {
		late, lat time.Duration
		measured  bool
	}{
		{0, 10 * ms, false},
		{0, 250 * ms, false},
		{150 * ms, 160 * ms, true},
		{60 * ms, 70 * ms, true},
		{0, 10 * ms, true},
	}
	if len(got) != len(want) {
		t.Fatalf("%d requests sent, want %d (one per due time before the window ends)", len(got), len(want))
	}
	for i, w := range want {
		if got[i].late != w.late || got[i].lat != w.lat || got[i].measured != w.measured {
			t.Errorf("request %d: late %v lat %v measured %v; want %v %v %v",
				i, got[i].late, got[i].lat, got[i].measured, w.late, w.lat, w.measured)
		}
	}
}

func TestAckLogCountsGroupedAcks(t *testing.T) {
	ack := func(epoch int64, delta int) opResult {
		return opResult{req: &request{class: classUpdate, itemDelta: delta}, status: 200, ackEpoch: epoch}
	}
	failed := ack(9, 1)
	failed.status = 500
	l := newAckLog([]opResult{ack(2, 1), ack(1, 1), ack(2, 1), ack(4, -1), ack(3, 0), failed})
	for epoch, want := range map[int64]int{0: 0, 1: 1, 2: 3, 3: 3, 4: 2, 7: 2} {
		if got := l.netAt(epoch); got != want {
			t.Errorf("netAt(%d) = %d, want %d", epoch, got, want)
		}
	}
	if l.lastEpoch() != 4 {
		t.Errorf("lastEpoch = %d, want 4 (the failed request acked nothing)", l.lastEpoch())
	}
}

func TestOracleChecksCountAndWindow(t *testing.T) {
	doc := datagen.XMark(testScale, 1)
	oc := newOracle(doc)
	want, err := oc.expect(itemScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.rows) != 6*testScale {
		t.Fatalf("oracle finds %d items, the generator made %d", len(want.rows), 6*testScale)
	}
	req := queryRequest(classPage, itemScan, 4, 10, true)
	good := opResult{req: req, status: 200, total: len(want.rows),
		window: hashWindow(want.cols, want.rows[10:14])}
	acks := newAckLog(nil)
	if err := oc.checkQuery(&good, acks); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	short := good
	short.total--
	if oc.checkQuery(&short, acks) == nil {
		t.Error("wrong row count accepted")
	}
	shifted := good
	shifted.window = hashWindow(want.cols, want.rows[11:15])
	if oc.checkQuery(&shifted, acks) == nil {
		t.Error("wrong first window accepted")
	}
	// At a later epoch the count must follow the acks, whatever the window.
	later := shifted
	later.epoch, later.total = 3, len(want.rows)+2
	acks = newAckLog([]opResult{
		{req: &request{class: classUpdate, itemDelta: 1}, status: 200, ackEpoch: 1},
		{req: &request{class: classUpdate, itemDelta: 1}, status: 200, ackEpoch: 3},
	})
	if err := oc.checkQuery(&later, acks); err != nil {
		t.Errorf("count implied by the acks rejected: %v", err)
	}
	later.total--
	if oc.checkQuery(&later, acks) == nil {
		t.Error("count contradicting the acks accepted")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "request", Start: 0, End: 100e6, Parent: -1, Request: 1},
		{Name: "serve.encode", Start: 10e6, End: 70e6, Parent: 0, Request: 1},
		{Name: "encode.sort", Start: 10e6, End: 50e6, Parent: 1, Request: 1},
		{Name: "algebra.execute", Start: 70e6, End: 95e6, Parent: 0, Request: 1},
	}
	want := map[string]float64{"request": 15, "serve.encode": 20, "encode.sort": 40, "algebra.execute": 25}
	got := tr.selfTimes()
	for name, ms := range want {
		if math.Abs(got[name]-ms) > 1e-9 {
			t.Errorf("self time of %s = %g ms, want %g", name, got[name], ms)
		}
	}
	tr.requests[1] = &request{class: classJoin, shape: "s"}
	if d := tr.durations("algebra.execute", ofClass(classJoin)); len(d) != 1 || d[0] != 25 {
		t.Errorf("durations by class = %v, want [25]", d)
	}
	if d := tr.durations("algebra.execute", ofShape("other")); len(d) != 0 {
		t.Errorf("durations of another shape = %v, want none", d)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// comm may hold spaces and parentheses; utime=150 and stime=50 ticks.
	line := "4242 (xv serve) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 150 50 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	got, err := parseProcStatCPU(line)
	if err != nil || got != 2.0 {
		t.Fatalf("cpu seconds = %g, %v; want 2", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
}

func TestScrapeDeltas(t *testing.T) {
	before, err := parseScrape("# HELP x\nxvserve_plan_cache_hits_total 10\nxvserve_http_requests_total{path=\"/query\",code=\"200\"} 4\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape("xvserve_plan_cache_hits_total 25\nxvserve_plan_cache_misses_total 5\n")
	if err != nil {
		t.Fatal(err)
	}
	hits := after.delta(before, "xvserve_plan_cache_hits_total")
	misses := after.delta(before, "xvserve_plan_cache_misses_total")
	if hits != 15 || misses != 5 || ratio(hits, misses) != 0.75 {
		t.Errorf("hits %g misses %g ratio %g; want 15 5 0.75", hits, misses, ratio(hits, misses))
	}
	if ratio(0, 0) != 0 {
		t.Error("ratio of nothing must be 0")
	}
	if _, err := parseScrape("no_value_here\n"); err == nil {
		t.Error("malformed sample accepted")
	}
}

func TestEmitHoldsTheMetricTable(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	out, err := emit(defs, map[string]float64{"a_ms": 1.5, "b": 2})
	if err != nil || out["a_ms"] != (metricValue{1.5, "ms"}) || len(out) != 2 {
		t.Fatalf("emit = %v, %v", out, err)
	}
	if _, err := emit(defs, map[string]float64{"a_ms": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := emit(defs, map[string]float64{"a_ms": 1, "b": 2, "c": 3}); err == nil {
		t.Error("metric outside the table accepted")
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units, in names the contract's character set allows.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}

	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: unit %q is outside the allowed set", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: only end-to-end metrics carry a bound", kind, m.Name)
			}
			if m.Bound != nil && (*m.Bound < 0.05 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %g is outside [0.05, 0.25]", kind, m.Name, *m.Bound)
			}
			if i < len(want) && (m.Name != want[i].name || m.Unit != want[i].unit) {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the harness",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s [s], lower is better; got %+v", m)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Command) != 2 || spec.Command[0] != "bash" || spec.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want [bash bench/run.sh]", spec.Command)
	}
	// 4 + 22 runs per workload, each with set-ups, warm-up and checks on
	// top of the measured time, must fit the driver's 3420 s.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(float64(spec.RunSeconds)+12) > 3420-240 {
		t.Errorf("run_seconds %d: %d runs would not fit the time cap", spec.RunSeconds, runs)
	}
}

// TestEveryWorkloadEndToEnd runs the real thing small: the xvserve binary
// built from the tree, each workload untraced and traced, every answer
// checked. It is what shows that each run emits exactly the metric tables.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs xvserve")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnvironment(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	e.buildDir = t.TempDir()
	e.xvserve = filepath.Join(e.buildDir, "xvserve")
	if err := e.buildDaemon(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 3, docSeed: 3, seconds: 2, trace: traced,
				scale: 20, warmUp: 200 * time.Millisecond}
			res, err := runWorkload(e, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w, traced, d.name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
}
