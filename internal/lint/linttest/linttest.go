// Package linttest runs lint analyzers against fixture packages with
// analysistest-style "// want" expectations: a comment `// want "regexp"`
// (or backquoted) on a line asserts that exactly that line gets a
// diagnostic whose message matches the regexp. Unmatched diagnostics and
// unmatched expectations both fail the test, so a fixture pins an
// analyzer's behavior from both sides — what it must flag and what it
// must leave alone.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"xmlviews/internal/lint"
)

// wantRE matches `want` followed by one quoted or backquoted pattern.
var wantRE = regexp.MustCompile("want\\s+(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture package in dir and checks the analyzers'
// diagnostics against the fixture's want comments. Analyzers run with
// Force (package-scope Roots do not apply to fixtures).
func Run(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	prog, err := lint.LoadDir(dir, "fixture/"+filepath.Base(dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags := lint.Run(prog, analyzers, lint.RunOptions{Force: true})

	var wants []*expectation
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						pat, err := unquote(m[1])
						if err != nil {
							t.Fatalf("%s: bad want literal %s: %v", pkg.Fset.Position(c.Pos()), m[1], err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
						}
						pos := pkg.Fset.Position(c.Pos())
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
					}
				}
			}
		}
	}

	for _, d := range diags {
		if w := match(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic at %s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// match finds the first unmatched expectation on the diagnostic's line
// whose pattern matches its message.
func match(wants []*expectation, d lint.Diagnostic) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

func unquote(lit string) (string, error) {
	if len(lit) >= 2 && lit[0] == '`' {
		return lit[1 : len(lit)-1], nil
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		return "", fmt.Errorf("%v", err)
	}
	return s, nil
}
