package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
)

func TestHelpListsEveryCommand(t *testing.T) {
	for _, args := range [][]string{{"help"}, {"frobnicate"}, nil} {
		var out strings.Builder
		err := run(args, nil, &out)
		if wantErr := len(args) == 0 || args[0] == "frobnicate"; (err != nil) != wantErr {
			t.Errorf("run(%q): err = %v, want error %v", args, err, wantErr)
		}
		for _, cmd := range commands {
			if !strings.Contains(out.String(), "\n  "+cmd.name+" ") || !strings.Contains(out.String(), cmd.usage) {
				t.Errorf("run(%q) does not list %s:\n%s", args, cmd.name, out.String())
			}
		}
	}
}

func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("gen: %w", flag.ErrHelp), 0},
		{errNo, 1},
		{errors.New("need both -p and -q"), 2},
	} {
		if got := exitStatus(tc.err); got != tc.want {
			t.Errorf("exitStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestExitStatusSeparatesVerdictFromError runs the two verdict commands
// on a negative answer and on a typo: a script must be able to tell them
// apart by status alone.
func TestExitStatusSeparatesVerdictFromError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"contain", "-summary", "a(b(c))", "-p", "a(/b[id])", "-q", "a(//b[id])"}, 0},
		{[]string{"contain", "-summary", "a(b c)", "-p", "a(/b[id] /c)", "-q", "a(/b[id](/c))"}, 1},
		{[]string{"contain", "-summary", "a(b c)", "-p", "a(/b[id] /c)", "-q", "a(/b[id](/c)"}, 2},
		{[]string{"rewrite", "-summary", "site(item(name mail))", "-q", "site(/item[id](/mail[v]))", "-v", "v1=site(/item[id](/name[v]))"}, 1},
		{[]string{"rewrite", "-summary", "site(item(name mail))", "-q", "site(/item[id](/mail[v]))", "-v", "v1"}, 2},
		{[]string{"gen", "-h"}, 0},
		{[]string{"gen", "-corpus", "nope"}, 2},
	} {
		var out strings.Builder
		if got := exitStatus(run(tc.args, nil, &out)); got != tc.want {
			t.Errorf("xv %s: status %d, want %d\n%s", strings.Join(tc.args, " "), got, tc.want, out.String())
		}
	}
}
