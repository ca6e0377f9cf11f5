package lint_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xmlviews/internal/lint"
)

// realBugDiags runs detorder over its fixture and returns the findings
// from realbug.go — the function that reproduces, shape for shape, the
// pre-fix fillVirtualIDs column-order defect. The output formats are
// validated against these rather than synthetic diagnostics, so the
// JSON/SARIF a CI run would have produced for the real bug is pinned.
func realBugDiags(t *testing.T) []lint.Diagnostic {
	t.Helper()
	prog, err := lint.LoadDir("testdata/detorder", "fixture/detorder")
	if err != nil {
		t.Fatalf("loading detorder fixture: %v", err)
	}
	diags := lint.Run(prog, []*lint.Analyzer{lint.DetOrder}, lint.RunOptions{Force: true})
	var out []lint.Diagnostic
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "realbug.go") {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no diagnostics in realbug.go; the pre-fix defect shape went undetected")
	}
	return out
}

func TestJSONOutput(t *testing.T) {
	diags := realBugDiags(t)
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var findings []lint.JSONFinding
	if err := json.Unmarshal(buf.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(findings) != len(diags) {
		t.Fatalf("got %d findings for %d diagnostics", len(findings), len(diags))
	}
	found := false
	for _, f := range findings {
		if f.Analyzer != "detorder" {
			t.Errorf("finding attributed to %q, want detorder", f.Analyzer)
		}
		if f.Line <= 0 || f.File == "" {
			t.Errorf("finding lost its position: %+v", f)
		}
		if strings.Contains(f.Message, "map iteration order is random") && strings.Contains(f.File, "realbug.go") {
			found = true
		}
	}
	if !found {
		t.Errorf("the fillVirtualIDs-shape finding did not survive the JSON round trip: %s", buf.String())
	}
}

func TestSARIFOutput(t *testing.T) {
	diags := realBugDiags(t)
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, lint.All(), diags); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}

	// Decode through interface{} so the assertions check the wire
	// property names GitHub's upload consumes, not our struct tags.
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version %q schema %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "xvlint" {
		t.Errorf("driver name %q, want xvlint", run.Tool.Driver.Name)
	}
	rules := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no shortDescription", r.ID)
		}
	}
	for _, a := range lint.All() {
		if !rules[a.Name] {
			t.Errorf("analyzer %s missing from the SARIF rules", a.Name)
		}
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("got %d results for %d diagnostics", len(run.Results), len(diags))
	}
	for _, res := range run.Results {
		if !rules[res.RuleID] {
			t.Errorf("result rule %q not declared in the rules array", res.RuleID)
		}
		if res.Level != "error" {
			t.Errorf("result level %q, want error", res.Level)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result without a location: %+v", res)
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.Region.StartLine <= 0 {
			t.Errorf("non-positive startLine in %+v", loc)
		}
		if uri := loc.ArtifactLocation.URI; uri == "" || strings.Contains(uri, "\\") {
			t.Errorf("artifact URI %q must be non-empty and slash-separated", uri)
		}
	}
}
