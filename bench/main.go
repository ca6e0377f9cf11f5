// Command bench is the repository's benchmark: closed-loop HTTP load on the
// real xvserve binary over a generated XMark store, every answer checked
// against in-process evaluation, plus a traced pass that times the calls
// into each layer's public functions from this harness. See README.md.
//
//	bash bench/run.sh                                   # every workload, untraced then traced
//	bash bench/run.sh --workload cold_plan --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh -repeat 5                         # run-to-run spread per metric
//	bash bench/run.sh -validate                         # every query shape, cold, once
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (warm_read, cold_plan, write_stream, mixed_rw) and print its result as the last line; empty: the whole suite")
	seed := fs.Int64("seed", 1, "request-stream seed")
	docSeed := fs.Int64("docseed", 0, "document seed (0: same as -seed)")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	repeat := fs.Int("repeat", 0, "run the untraced suite N times on seeds seed..seed+N-1 and print per-metric median, quartiles and spread")
	validate := fs.Bool("validate", false, "run every query shape cold once and report its time and the daemon's RSS growth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	e, err := newEnvironment(root, filepath.Join(root, "bench", "out"))
	if err != nil {
		return err
	}
	defer e.cleanup()
	if err := e.buildDaemon(); err != nil {
		return err
	}
	config := func(workload string, seed int64, trace bool) runConfig {
		cfg := runConfig{workload: workload, seed: seed, docSeed: *docSeed, seconds: *seconds, trace: trace, scale: benchScale, warmUp: warmUp}
		if cfg.docSeed == 0 {
			cfg.docSeed = seed
		}
		return cfg
	}
	switch {
	case *validate:
		return validateTemplates(e, stdout, *seed)
	case *repeat > 0:
		return repeatSuite(e, stdout, *repeat, func(workload string, i int) runConfig {
			return config(workload, *seed+int64(i), false)
		})
	case *workload != "":
		res, err := runWorkload(e, config(*workload, *seed, *trace == 1))
		if err != nil {
			return err
		}
		printResult(stdout, *workload, res)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", line)
		return err
	}
	// The suite: every workload untraced, then traced.
	failed := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloadNames {
			res, err := runWorkload(e, config(w, *seed, traced))
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			printResult(stdout, w, res)
			failed += res.Failed
		}
	}
	fmt.Fprintf(stdout, "\nrecords and traces: %s\ncaveat: %s\n", e.outDir, sandboxCaveat)
	if failed > 0 {
		return fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return nil
}

// printResult lists a run's metrics by name with their units.
func printResult(w io.Writer, workload string, res *result) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d, fail_ratio %.6f ==\n",
		workload, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// repeatSuite is the repeatability mode: the regression bounds in
// BENCHMARK.json are set from its output (README, "bounds").
func repeatSuite(e *environment, stdout io.Writer, n int, config func(workload string, i int) runConfig) error {
	for _, w := range workloadNames {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runWorkload(e, config(w, i))
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w, i, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed", w, i, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(stdout, "\n== %s: %d runs ==\n%-28s %12s %12s %12s %8s\n", w, n, "metric", "median", "q1", "q3", "spread")
		for _, d := range endToEnd {
			q1, q3 := quartiles(values[d.name])
			fmt.Fprintf(stdout, "%-28s %12.4f %12.4f %12.4f %7.1f%%  %s\n",
				d.name, median(values[d.name]), q1, q3, 100*spread(values[d.name]), d.unit)
		}
	}
	return nil
}

// validateTemplates runs every query shape the workloads use cold, once,
// against a fresh daemon and reports its latency and the growth of the
// daemon's peak RSS: the check a new shape must pass (≤1s, bounded memory)
// before it may join a workload.
func validateTemplates(e *environment, stdout io.Writer, seed int64) error {
	st, err := setUp(e, filepath.Join(e.workDir, "validate"), seed, benchScale)
	if err != nil {
		return err
	}
	defer func() { _ = st.d.stop() }()
	c := newClient(st.d.base, 1)
	defer c.close()
	var reqs []*request
	seen := map[string]bool{}
	for _, p := range warmPool {
		if !seen[p.query] {
			seen[p.query] = true
			reqs = append(reqs, p.request())
		}
	}
	g := newColdGen(seed, 0, 1, nameValues(st.doc))
	for range coldTemplates {
		reqs = append(reqs, g.next())
	}
	const maxCold = time.Second
	const maxGrowthMB = 256
	fmt.Fprintf(stdout, "%10s %12s  %s\n", "cold ms", "rss +MB", "query")
	var bad int
	for _, req := range reqs {
		before, err := st.d.peakRSSMB()
		if err != nil {
			return err
		}
		res := c.do(req)
		if !res.ok() {
			return fmt.Errorf("%s: %w", req.query, res.err)
		}
		after, err := st.d.peakRSSMB()
		if err != nil {
			return err
		}
		mark := ""
		if res.lat > maxCold || after-before > maxGrowthMB || res.planCached {
			mark = "  <-- unfit"
			bad++
		}
		fmt.Fprintf(stdout, "%10.1f %12.1f  %s%s\n", float64(res.lat)/1e6, after-before, req.query, mark)
	}
	if bad > 0 {
		return fmt.Errorf("%d query shapes exceed %s cold or %d MB of RSS growth", bad, maxCold, maxGrowthMB)
	}
	return nil
}
