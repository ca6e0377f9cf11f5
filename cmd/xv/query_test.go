package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlviews/internal/xmltree"
)

func TestGenParseableXML(t *testing.T) {
	for _, corpus := range []string{"xmark", "dblp02", "dblp05", "shakespeare", "nasa", "swissprot"} {
		var out strings.Builder
		if err := run([]string{"gen", "-corpus", corpus, "-scale", "1", "-seed", "3"}, nil, &out); err != nil {
			t.Fatalf("%s: %v", corpus, err)
		}
		doc, err := xmltree.ParseXMLString(strings.TrimSpace(out.String()))
		if err != nil {
			t.Fatalf("%s output does not parse: %v", corpus, err)
		}
		if doc.Size() < 5 {
			t.Fatalf("%s produced a trivial document (%d nodes)", corpus, doc.Size())
		}
	}
}

func TestGenDeterministicForSeed(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"gen", "-scale", "1", "-seed", "9"}, nil, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gen", "-scale", "1", "-seed", "9"}, nil, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different documents")
	}
}

func TestGenBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"gen", "-corpus", "nope"}, nil, &out); err == nil {
		t.Fatal("unknown corpus not rejected")
	}
	if err := run([]string{"gen", "-scale", "-1"}, nil, &out); err == nil {
		t.Fatal("negative scale not rejected")
	}
	if err := run([]string{"gen", "-bogusflag"}, nil, &out); err == nil {
		t.Fatal("unknown flag not rejected")
	}
}

func TestSummaryStdin(t *testing.T) {
	in := strings.NewReader(`<a><b>1</b><b>2</b></a>`)
	var out strings.Builder
	if err := run([]string{"summary"}, in, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "|S| = 2") {
		t.Fatalf("stats line wrong:\n%s", out.String())
	}
}

func TestSummaryFileWithTreeAndPaths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(`<a><b>1</b><c/></a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"summary", "-tree", "-paths", path}, nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "a(") || !strings.Contains(got, "/a/b") {
		t.Fatalf("tree/paths output wrong:\n%s", got)
	}
}

func TestSummaryMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"summary", "/nonexistent/doc.xml"}, nil, &out); err == nil {
		t.Fatal("missing file not reported")
	}
}

func TestContainVerdicts(t *testing.T) {
	var out strings.Builder
	err := run([]string{"contain", "-summary", "a(b(c))", "-p", "a(/b[id])", "-q", "a(//b[id])"}, nil, &out)
	if err != nil {
		t.Fatalf("positive containment: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "yes") {
		t.Fatalf("output wrong:\n%s", out.String())
	}

	out.Reset()
	err = run([]string{"contain", "-summary", "a(b c)", "-p", "a(/b[id] /c)", "-q", "a(/b[id](/c))"}, nil, &out)
	if !errors.Is(err, errNo) {
		t.Fatalf("non-containment: err = %v, want the negative verdict\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no") {
		t.Fatalf("verdict missing:\n%s", out.String())
	}
}

func TestContainWithDocumentSummary(t *testing.T) {
	docPath := filepath.Join(t.TempDir(), "d.xml")
	if err := os.WriteFile(docPath, []byte(`<a><b><c>1</c></b></a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"contain", "-doc", docPath, "-p", "a(/b[id])", "-q", "a(//b[id])"}, nil, &out); err != nil {
		t.Fatalf("doc summary containment: err=%v", err)
	}
}

func TestContainBadUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"contain"}, nil, &out); err == nil {
		t.Fatal("missing flags not rejected")
	}
	if err := run([]string{"contain", "-p", "a", "-q", "a"}, nil, &out); err == nil {
		t.Fatal("missing summary not rejected")
	}
	if err := run([]string{"contain", "-summary", "a", "-doc", "x", "-p", "a", "-q", "a"}, nil, &out); err == nil {
		t.Fatal("both -summary and -doc not rejected")
	}
	if err := run([]string{"contain", "-summary", "a(", "-p", "a[id]", "-q", "a[id]"}, nil, &out); err == nil {
		t.Fatal("bad summary not rejected")
	}
	if err := run([]string{"contain", "-summary", "a", "-p", "a(", "-q", "a[id]"}, nil, &out); err == nil {
		t.Fatal("bad pattern not rejected")
	}
	if err := run([]string{"contain", "-doc", "/nonexistent.xml", "-p", "a[id]", "-q", "a[id]"}, nil, &out); err == nil {
		t.Fatal("missing document not reported")
	}
}

func writeDoc(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xml")
	xml := `<site><item><name>pen</name></item><item><name>ink</name></item></site>`
	if err := os.WriteFile(path, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRewriteAndExec(t *testing.T) {
	doc := writeDoc(t)
	var out strings.Builder
	err := run([]string{"rewrite",
		"-doc", doc,
		"-q", `site(/item[id](/name[v]))`,
		"-v", `v1=site(/item[id](/name[v]))`,
		"-exec",
	}, nil, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "rewriting 1:") {
		t.Fatalf("no rewriting reported:\n%s", got)
	}
	if !strings.Contains(got, "pen") || !strings.Contains(got, "ink") {
		t.Fatalf("executed rows missing:\n%s", got)
	}
}

func TestRewriteSummaryOnly(t *testing.T) {
	var out strings.Builder
	err := run([]string{"rewrite",
		"-summary", `site(item(name))`,
		"-q", `site(/item[id])`,
		"-v", `v1=site(/item[id])`,
	}, nil, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

func TestRewriteNoRewriting(t *testing.T) {
	var out strings.Builder
	err := run([]string{"rewrite",
		"-summary", `site(item(name mail))`,
		"-q", `site(/item[id](/mail[v]))`,
		"-v", `v1=site(/item[id](/name[v]))`,
	}, nil, &out)
	if !errors.Is(err, errNo) {
		t.Fatalf("err = %v, want the negative verdict\n%s", err, out.String())
	}
}

func TestRewriteMissingFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"rewrite", "-q", "a"}, nil, &out); err == nil {
		t.Fatal("missing flags not rejected")
	}
}

func TestRewriteCost(t *testing.T) {
	doc := writeDoc(t)
	var out strings.Builder
	err := run([]string{"rewrite",
		"-doc", doc,
		"-q", `site(/item[id](/name[v]))`,
		"-v", `v1=site(/item[id](/name[v]))`,
		"-cost", "-exec",
	}, nil, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "cost=") {
		t.Fatalf("no per-rewriting cost estimates:\n%s", got)
	}
	if !strings.Contains(got, "chosen:") {
		t.Fatalf("no chosen plan reported:\n%s", got)
	}
	if !strings.Contains(got, "pen") || !strings.Contains(got, "ink") {
		t.Fatalf("executed rows missing:\n%s", got)
	}
}

func TestRewriteCostSummaryOnly(t *testing.T) {
	// Without a document the estimator falls back to summary-based sizes
	// (uniform without annotations); -cost must still work.
	var out strings.Builder
	err := run([]string{"rewrite",
		"-summary", `site(item(name))`,
		"-q", `site(/item[id])`,
		"-v", `v1=site(/item[id])`,
		"-cost",
	}, nil, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "chosen:") {
		t.Fatalf("no chosen plan reported:\n%s", out.String())
	}
}

// TestRewriteExecNeedsDocBeforeSearch: -exec without -doc is a flag error,
// found before any parsing or search, so nothing is printed.
func TestRewriteExecNeedsDocBeforeSearch(t *testing.T) {
	var out strings.Builder
	err := run([]string{"rewrite",
		"-summary", `site(item(name))`,
		"-q", `site(/item[id])`,
		"-v", `v1=site(/item[id])`,
		"-exec",
	}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "-exec requires -doc") {
		t.Fatalf("err = %v, want the -exec flag error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed before the flag check:\n%s", out.String())
	}
}
