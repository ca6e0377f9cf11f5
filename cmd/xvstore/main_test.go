package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlviews/internal/serve"
)

func TestRunBuildAndInfo(t *testing.T) {
	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")
	xml := `<site><item><name>pen</name></item><item><name>ink</name></item></site>`
	if err := os.WriteFile(docPath, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "store")

	var buildOut strings.Builder
	err := run([]string{"build", "-doc", docPath, "-out", out,
		"-v", `v1=site(/item[id](/name[v]))`}, &buildOut)
	if err != nil {
		t.Fatalf("build: %v\n%s", err, buildOut.String())
	}
	if !strings.Contains(buildOut.String(), "v1: 2 rows") {
		t.Fatalf("build output wrong:\n%s", buildOut.String())
	}
	if _, err := os.Stat(filepath.Join(out, "catalog.json")); err != nil {
		t.Fatalf("no catalog written: %v", err)
	}

	var infoOut strings.Builder
	if err := run([]string{"info", "-dir", out}, &infoOut); err != nil {
		t.Fatalf("info: %v", err)
	}
	got := infoOut.String()
	if !strings.Contains(got, "v1:") || !strings.Contains(got, "summary hash:") {
		t.Fatalf("info output wrong:\n%s", got)
	}
}

func TestRunApplyCompactInfo(t *testing.T) {
	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")
	xml := `<site><item><name>pen</name></item><item><name>ink</name></item></site>`
	if err := os.WriteFile(docPath, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "store")
	var sb strings.Builder
	if err := run([]string{"build", "-doc", docPath, "-out", out,
		"-v", `v1=site(/item[id](/name[v]))`}, &sb); err != nil {
		t.Fatal(err)
	}

	var applyOut strings.Builder
	err := run([]string{"apply", "-dir", out,
		"-u", `{"op":"insert","parent":"1","subtree":"item(name \"dry\")"}`}, &applyOut)
	if err != nil {
		t.Fatalf("apply: %v\n%s", err, applyOut.String())
	}
	got := applyOut.String()
	if !strings.Contains(got, "v1: +1 -0 rows (now 3)") || !strings.Contains(got, "epoch 1") {
		t.Fatalf("apply output wrong:\n%s", got)
	}

	// A batch from a file, driving a second epoch.
	batch := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(batch, []byte(`{"updates":[{"op":"settext","target":"1.1.1","value":"quill"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	applyOut.Reset()
	if err := run([]string{"apply", "-dir", out, "-f", batch}, &applyOut); err != nil {
		t.Fatalf("apply -f: %v\n%s", err, applyOut.String())
	}
	if !strings.Contains(applyOut.String(), "epoch 2") {
		t.Fatalf("apply -f output wrong:\n%s", applyOut.String())
	}

	// Each apply reopens the directory: the document it validates against
	// is the checkpoint plus a replay of the log the earlier applies
	// appended. Retexting the name of the item epoch 1 inserted (1.5.1
	// exists nowhere else) only resolves if that replay ran.
	applyOut.Reset()
	if err := run([]string{"apply", "-dir", out, "-u", `{"op":"settext","target":"1.5.1","value":"bone dry"}`}, &applyOut); err != nil {
		t.Fatalf("apply on a logged node: %v\n%s", err, applyOut.String())
	}
	if err := run([]string{"apply", "-dir", out, "-u", `{"op":"delete","target":"1.7"}`}, &applyOut); err == nil {
		t.Fatal("apply on a node no epoch created succeeded")
	}

	var infoOut strings.Builder
	if err := run([]string{"info", "-dir", out}, &infoOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"epoch: 3", "base epoch: 0", "document checkpoint: document.xvt (epoch 0)",
		"update log: 3 record(s)", "replayed for epochs 1..3", "base seg-0000.xvs"} {
		if !strings.Contains(infoOut.String(), want) {
			t.Fatalf("info lacks %q:\n%s", want, infoOut.String())
		}
	}

	var compactOut strings.Builder
	if err := run([]string{"compact", "-dir", out}, &compactOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(compactOut.String(), "checkpoint at epoch 3: wrote 2 file(s)") ||
		!strings.Contains(compactOut.String(), "removed 2 superseded file(s)") {
		t.Fatalf("compact output wrong:\n%s", compactOut.String())
	}
	infoOut.Reset()
	if err := run([]string{"info", "-dir", out}, &infoOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"epoch: 3", "base epoch: 3", "document checkpoint: document.c0003.xvt (epoch 3)",
		"nothing to replay", "base seg-0000.c0003.xvs"} {
		if !strings.Contains(infoOut.String(), want) {
			t.Fatalf("info after compaction lacks %q:\n%s", want, infoOut.String())
		}
	}

	// A daemon's checkpoints show as the stats summary's checkpoint phase:
	// one over a catalog-version-4 directory checkpoints it at start.
	v4 := filepath.Join(dir, "v4")
	if err := os.Mkdir(v4, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("..", "..", "internal", "view", "testdata", "store-v4")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(v4, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := serve.New(serve.Config{Dir: v4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// A rejected update is answered by the committer, after its start-up step.
	ur, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(`[{"op":"delete","target":"1.99"}]`))
	if err != nil {
		t.Fatal(err)
	}
	ur.Body.Close()
	if ur.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("barrier update status %d", ur.StatusCode)
	}
	var statsOut strings.Builder
	if err := run([]string{"stats", "-addr", ts.URL}, &statsOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(statsOut.String(), "  checkpoint        n=1 ") || strings.Contains(statsOut.String(), "compact") {
		t.Fatalf("stats does not show the checkpoint phase:\n%s", statsOut.String())
	}
}

func TestRunBadUsage(t *testing.T) {
	var out strings.Builder
	err := run(nil, &out)
	if err == nil {
		t.Fatal("empty args not rejected")
	}
	for _, sub := range []string{"build", "apply", "compact", "info", "stats"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("usage error %q does not name subcommand %s", err, sub)
		}
	}
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Fatal("unknown subcommand not rejected")
	}
	if err := run([]string{"build"}, &out); err == nil {
		t.Fatal("build without flags not rejected")
	}
	if err := run([]string{"build", "-doc", "x", "-out", "y", "-v", "no-equals-sign"}, &out); err == nil {
		t.Fatal("bad view definition not rejected")
	}
	if err := run([]string{"info", "-dir", "/nonexistent"}, &out); err == nil {
		t.Fatal("missing store not reported")
	}
	if err := run([]string{"apply", "-dir", "/nonexistent"}, &out); err == nil {
		t.Fatal("apply without updates not rejected")
	}
	if err := run([]string{"apply", "-dir", "/nonexistent", "-u", `{"op":"delete","target":"1.1"}`}, &out); err == nil {
		t.Fatal("apply on missing store not reported")
	}
	if err := run([]string{"apply", "-dir", "/nonexistent", "-u", `nope`}, &out); err == nil {
		t.Fatal("bad update JSON not rejected")
	}
	if err := run([]string{"compact"}, &out); err == nil {
		t.Fatal("compact without -dir not rejected")
	}
}

func TestRunInfoStats(t *testing.T) {
	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")
	xml := `<site><item><name>pen</name></item><item><name>ink</name></item></site>`
	if err := os.WriteFile(docPath, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "store")
	var buildOut strings.Builder
	if err := run([]string{"build", "-doc", docPath, "-out", out,
		"-v", `v1=site(/item[id](/name[v]))`}, &buildOut); err != nil {
		t.Fatalf("build: %v\n%s", err, buildOut.String())
	}

	var infoOut strings.Builder
	if err := run([]string{"info", "-dir", out, "-stats"}, &infoOut); err != nil {
		t.Fatalf("info: %v", err)
	}
	got := infoOut.String()
	// 5 document nodes (site, 2 items, 2 names), 6 text bytes (pen+ink).
	if !strings.Contains(got, "statistics: 3 summary node(s), 5 document node(s), 6 text byte(s)") {
		t.Fatalf("statistics line wrong:\n%s", got)
	}
	// -stats lists per-path lines with counts and fanout.
	if !strings.Contains(got, "/site/item/name: 2 node(s)") {
		t.Fatalf("per-path statistics missing:\n%s", got)
	}
}
