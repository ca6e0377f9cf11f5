// Command xvlint runs the project's invariant analyzers (detorder,
// ctxpoll, errclose, sharemut, metriccheck) over the given packages and
// exits non-zero when any diagnostic is found.
//
// Usage:
//
//	go run ./cmd/xvlint ./...                        # what CI runs (scripts/lint.sh)
//	go run ./cmd/xvlint -json ./...                  # findings as a JSON array
//	go run ./cmd/xvlint -sarif out.sarif ./...       # also write SARIF 2.1.0 for CI annotation
//	go run ./cmd/xvlint -only sharemut,ctxpoll ./... # bisect findings by analyzer
//	go run ./cmd/xvlint help                         # print the invariant catalogue
//
// It must be invoked from inside the module: the loader type-checks from
// source with the standard library importer, which resolves module paths
// relative to the working directory. See docs/lint.md for the invariants
// and the //xvlint: annotation reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"xmlviews/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("xvlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "print findings as a JSON array instead of text")
	sarifOut := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to `file` (- for stdout)")
	only := fs.String("only", "", "comma-separated `analyzers` to run (default: all)")
	disable := fs.String("disable", "", "comma-separated `analyzers` to skip")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: xvlint [flags] [packages]    (or: xvlint help)")
		fs.PrintDefaults()
	}
	if len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "--help") {
		printHelp(stdout)
		return 0
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*only, *disable)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xvlint: %v\n", err)
		return 2
	}

	prog, err := lint.LoadPackages(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	diags := lint.Run(prog, analyzers, lint.RunOptions{})
	if *jsonOut {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "xvlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *sarifOut != "" {
		w := stdout
		if *sarifOut != "-" {
			f, err := os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xvlint: %v\n", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		if err := lint.WriteSARIF(w, analyzers, diags); err != nil {
			fmt.Fprintf(os.Stderr, "xvlint: %v\n", err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "xvlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers applies -only and -disable to the full suite.
func selectAnalyzers(only, disable string) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	parse := func(csv string) (map[string]bool, error) {
		set := map[string]bool{}
		if csv == "" {
			return set, nil
		}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (see `xvlint help`)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	keep, err := parse(only)
	if err != nil {
		return nil, err
	}
	drop, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range lint.All() {
		if len(keep) > 0 && !keep[a.Name] {
			continue
		}
		if drop[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

func printHelp(w io.Writer) {
	fmt.Fprintln(w, "xvlint checks the project invariants described in docs/lint.md.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Analyzers (select with -only/-disable):")
	fmt.Fprintln(w)
	all := lint.All()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	for _, a := range all {
		fmt.Fprintf(w, "  %-15s %s\n", a.Name, a.Summary)
	}
	fmt.Fprintln(w)
	for _, a := range all {
		fmt.Fprintf(w, "%s\n    %s\n", a.Name, a.Doc)
		if len(a.Roots) > 0 {
			fmt.Fprintf(w, "    scope: %v\n", a.Roots)
		}
		fmt.Fprintln(w)
	}
}
