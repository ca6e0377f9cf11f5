// Command xv is the offline tool set: it generates corpora, builds
// summaries, decides containment, rewrites queries over views, reruns the
// paper's evaluation, and builds, maintains and inspects the persistent
// view stores that xvserve answers queries from.
//
//	xv gen -corpus xmark -scale 10 -seed 1 > auction.xml
//	xv summary -tree auction.xml
//	xv contain -summary 'a(!b(c) d)' -p 'a(/b[id])' -q 'a(//b[id])'
//	xv rewrite -doc auction.xml -q 'site(//item[id](/name[v]))' \
//	    -v 'V1=site(//item[id])' -v 'V2=site(//name[id,v])' -exec
//	xv paper -exp fig13a
//	xv build -doc auction.xml -out store/ -v 'V1=site(//item[id](/name[v]))'
//	xv apply -dir store/ -u '{"op":"insert","parent":"1","subtree":"item(name \"x\")"}'
//	xv compact -dir store/
//	xv info -dir store/
//	xv stats -addr localhost:8080
//
// `xv help` lists the subcommands; `xv <command> -h` lists a command's
// flags. The exit status is 0 on success, 1 on a negative verdict
// (contain: not contained; rewrite: no rewriting found) and 2 on a usage
// or runtime error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmltree"
)

// commands is the subcommand table: `xv help` prints it, and run
// dispatches through it.
var commands = []struct {
	name, usage string
	run         func(c cli, args []string) error
}{
	{"gen", "generate a synthetic corpus as XML", runGen},
	{"summary", "build and print a document's path summary", runSummary},
	{"contain", "decide pattern containment under a summary", runContain},
	{"rewrite", "rewrite a query over views; optionally cost and execute the plans", runRewrite},
	{"paper", "regenerate the tables and figures of the paper's evaluation", runPaper},
	{"build", "materialize views over a document into a store directory", runBuild},
	{"apply", "apply an update batch to a store", runApply},
	{"compact", "checkpoint a store: fold its update log into new base files", runCompact},
	{"info", "describe a store's catalog, epochs and statistics", runInfo},
	{"stats", "summarize a running xvserve's counters and phase latencies", runStats},
}

// errNo is a negative verdict: the command ran and its answer is "no".
var errNo = errors.New("negative verdict")

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	status := exitStatus(err)
	if status == 2 {
		fmt.Fprintln(os.Stderr, "xv:", err)
	}
	os.Exit(status)
}

// exitStatus is the one exit-status rule of every subcommand: 0 on success
// (help included), 1 on a negative verdict, 2 on a usage or runtime error.
func exitStatus(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errNo):
		return 1
	}
	return 2
}

// run dispatches args[0] to its subcommand.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	verb := ""
	if len(args) > 0 {
		verb = args[0]
	}
	for _, cmd := range commands {
		if cmd.name != verb {
			continue
		}
		err := cmd.run(cli{stdin: stdin, stdout: stdout}, args[1:])
		if err != nil && !errors.Is(err, errNo) {
			err = fmt.Errorf("%s: %w", verb, err)
		}
		return err
	}
	fmt.Fprintln(stdout, "usage: xv <command> [flags]; xv <command> -h lists its flags\n\ncommands:")
	for _, cmd := range commands {
		fmt.Fprintf(stdout, "  %-8s %s\n", cmd.name, cmd.usage)
	}
	switch verb {
	case "help":
		return nil
	case "":
		return errors.New("no command given")
	}
	return fmt.Errorf("unknown command %q", verb)
}

// cli is what a subcommand sees of its process: the standard streams.
type cli struct {
	stdin  io.Reader
	stdout io.Writer
}

// flags returns the flag set of subcommand verb, reporting to stdout.
func (c cli) flags(verb string) *flag.FlagSet {
	fs := flag.NewFlagSet("xv "+verb, flag.ContinueOnError)
	fs.SetOutput(c.stdout)
	return fs
}

// readDocument parses the XML document at path; "" and "-" read standard
// input.
func (c cli) readDocument(path string) (*xmltree.Document, error) {
	if path == "" || path == "-" {
		return xmltree.ParseXML(c.stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xmltree.ParseXML(f)
}

// loadSummary builds the summary of the document at docPath or, when
// docPath is "", parses the summary written in notation. The document is
// returned too (nil without one).
func (c cli) loadSummary(docPath, notation string) (*xmltree.Document, *summary.Summary, error) {
	if docPath == "" {
		s, err := summary.Parse(notation)
		return nil, s, err
	}
	doc, err := c.readDocument(docPath)
	if err != nil {
		return nil, nil, err
	}
	return doc, summary.Build(doc), nil
}

// viewFlags collects a repeatable string flag.
type viewFlags []string

func (v *viewFlags) String() string     { return strings.Join(*v, "; ") }
func (v *viewFlags) Set(s string) error { *v = append(*v, s); return nil }

// parseViews parses view definitions of the form name=pattern.
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
