package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"xmlviews/internal/lint"
)

func TestHelpListsEveryAnalyzerSorted(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"help"}, &buf); code != 0 {
		t.Fatalf("help exited %d", code)
	}
	out := buf.String()
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
		if !strings.Contains(out, a.Name) {
			t.Errorf("help output is missing analyzer %s", a.Name)
		}
		if a.Summary == "" || !strings.Contains(out, a.Summary) {
			t.Errorf("help output is missing %s's one-line summary", a.Name)
		}
	}
	sort.Strings(names)
	last := -1
	for _, name := range names {
		idx := strings.Index(out, "  "+name)
		if idx < 0 {
			t.Fatalf("catalogue line for %s not found", name)
		}
		if idx < last {
			t.Errorf("catalogue not sorted: %s appears out of order", name)
		}
		last = idx
	}
}

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("", "")
	if err != nil || len(all) != len(lint.All()) {
		t.Fatalf("default selection: %v, %d analyzers", err, len(all))
	}

	only, err := selectAnalyzers("detorder,ctxpoll", "")
	if err != nil || len(only) != 2 {
		t.Fatalf("-only selection: %v, got %d analyzers", err, len(only))
	}
	for _, a := range only {
		if a.Name != "detorder" && a.Name != "ctxpoll" {
			t.Errorf("-only leaked analyzer %s", a.Name)
		}
	}

	rest, err := selectAnalyzers("", "ctxpoll")
	if err != nil || len(rest) != len(lint.All())-1 {
		t.Fatalf("-disable selection: %v, got %d analyzers", err, len(rest))
	}
	for _, a := range rest {
		if a.Name == "ctxpoll" {
			t.Errorf("-disable kept ctxpoll")
		}
	}

	if _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Errorf("unknown -only analyzer not rejected")
	}
	if _, err := selectAnalyzers("", "nosuch"); err == nil {
		t.Errorf("unknown -disable analyzer not rejected")
	}
	if _, err := selectAnalyzers("detorder", "detorder"); err == nil {
		t.Errorf("empty selection not rejected")
	}
}
