package main

import (
	"strings"
	"testing"
)

func TestPaperFig13aSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"paper", "-exp", "fig13a"}, nil, &out); err != nil {
		t.Fatalf("fig13a: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "== fig13a ==") || !strings.Contains(got, "XMark summary") {
		t.Fatalf("output wrong:\n%s", got)
	}
}

func TestPaperTable1Smoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"paper", "-exp", "table1", "-scale", "1"}, nil, &out); err != nil {
		t.Fatalf("table1: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "XMark") {
		t.Fatalf("output wrong:\n%s", out.String())
	}
}

func TestPaperBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"paper", "-exp", "nope"}, nil, &out); err == nil {
		t.Fatal("unknown experiment not rejected")
	}
	if err := run([]string{"paper", "-bogus"}, nil, &out); err == nil {
		t.Fatal("unknown flag not rejected")
	}
}

// TestPaperRejectsNegativeFlags: each bad size is refused before any
// experiment runs. Unchecked, a negative -persize panics in makeslice, a
// negative -scale prints the scale-1 table, and a negative -views runs
// Fig. 15 over the seed views.
func TestPaperRejectsNegativeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table1", "-scale", "-1"}, "negative scale -1"},
		{[]string{"-exp", "fig15", "-views", "-3"}, "negative views -3"},
		{[]string{"-exp", "fig13b", "-persize", "-1"}, "persize -1 is not positive"},
		{[]string{"-exp", "fig14", "-persize", "0"}, "persize 0 is not positive"},
	} {
		var out strings.Builder
		err := run(append([]string{"paper"}, tc.args...), nil, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("paper %v: err = %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("paper %v printed before rejecting:\n%s", tc.args, out.String())
		}
	}
}
