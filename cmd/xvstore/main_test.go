package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	if !strings.Contains(infoOut.String(), "epoch: 3") || !strings.Contains(infoOut.String(), "delta seg-0000.d0001.xvs") {
		t.Fatalf("info output wrong:\n%s", infoOut.String())
	}
	if !strings.Contains(infoOut.String(), "document checkpoint: document.xvt (epoch 0)") ||
		!strings.Contains(infoOut.String(), "update log: 3 record(s)") || !strings.Contains(infoOut.String(), "replayed for epochs 1..3") {
		t.Fatalf("info does not show the checkpoint and the log:\n%s", infoOut.String())
	}

	var compactOut strings.Builder
	if err := run([]string{"compact", "-dir", out}, &compactOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(compactOut.String(), "folded 3 delta segment(s)") ||
		!strings.Contains(compactOut.String(), "reclaimed") {
		t.Fatalf("compact output wrong:\n%s", compactOut.String())
	}
	infoOut.Reset()
	if err := run([]string{"info", "-dir", out}, &infoOut); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(infoOut.String(), "delta ") {
		t.Fatalf("delta chain survived compaction:\n%s", infoOut.String())
	}
	if !strings.Contains(infoOut.String(), "epoch: 3") {
		t.Fatalf("compaction changed the epoch:\n%s", infoOut.String())
	}
}

func TestRunBadUsage(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("empty args not rejected")
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
