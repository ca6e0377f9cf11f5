package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParseHistograms extracts the unlabeled histogram series from a
// Prometheus text exposition (the format WritePrometheus emits), keyed by
// family name. It is the scrape side of the registry: the `xv stats`
// subcommand uses it to estimate latency quantiles from a live daemon's
// /metrics, and the tests use it to round-trip the exposition.
//
// Cumulative bucket counts are converted back to per-bucket counts; a
// non-monotone bucket sequence or a +Inf bucket disagreeing with _count is
// an error (those invariants are what make the exposition scrapeable).
func ParseHistograms(data []byte) (map[string]HistogramSnapshot, error) {
	type acc struct {
		uppers []float64
		cums   []float64
		sum    float64
		count  float64
		hasCnt bool
	}
	accs := map[string]*acc{}
	get := func(name string) *acc {
		a, ok := accs[name]
		if !ok {
			a = &acc{}
			accs[name] = a
		}
		return a
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := splitSample(line)
		if !ok {
			return nil, fmt.Errorf("obs: line %d: malformed sample %q", ln+1, line)
		}
		switch {
		case strings.Contains(series, "_bucket{"):
			name, le, ok := bucketParts(series)
			if !ok {
				continue // labeled beyond le; not ours
			}
			a := get(name)
			bound := math.Inf(1)
			if le != "+Inf" {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return nil, fmt.Errorf("obs: line %d: bad le %q", ln+1, le)
				}
				bound = b
			}
			if !math.IsInf(bound, 1) {
				a.uppers = append(a.uppers, bound)
			}
			a.cums = append(a.cums, value)
		case strings.HasSuffix(series, "_sum") && !strings.Contains(series, "{"):
			get(strings.TrimSuffix(series, "_sum")).sum = value
		case strings.HasSuffix(series, "_count") && !strings.Contains(series, "{"):
			a := get(strings.TrimSuffix(series, "_count"))
			a.count = value
			a.hasCnt = true
		}
	}
	out := map[string]HistogramSnapshot{}
	var names []string
	for name := range accs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := accs[name]
		if len(a.cums) == 0 || !a.hasCnt {
			continue // _sum/_count of a summary-less family; not a histogram
		}
		if len(a.cums) != len(a.uppers)+1 {
			return nil, fmt.Errorf("obs: histogram %s: %d buckets for %d bounds (missing +Inf?)", name, len(a.cums), len(a.uppers))
		}
		if !sort.Float64sAreSorted(a.uppers) {
			return nil, fmt.Errorf("obs: histogram %s: bucket bounds not ascending", name)
		}
		s := HistogramSnapshot{Uppers: a.uppers, Counts: make([]int64, len(a.cums)), Sum: a.sum, Count: int64(a.count)}
		prev := 0.0
		for i, c := range a.cums {
			if c < prev {
				return nil, fmt.Errorf("obs: histogram %s: bucket counts not monotone", name)
			}
			s.Counts[i] = int64(c - prev)
			prev = c
		}
		if int64(prev) != s.Count {
			return nil, fmt.Errorf("obs: histogram %s: +Inf bucket %d != count %d", name, int64(prev), s.Count)
		}
		out[name] = s
	}
	return out, nil
}

// splitSample splits "series value" (the trailing float) on the last
// space, so label values containing spaces survive.
func splitSample(line string) (series string, value float64, ok bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return "", 0, false
	}
	return strings.TrimSpace(line[:i]), v, true
}

// bucketParts splits `name_bucket{le="X"}` into (name, X); series with any
// other labels are reported not-ok.
func bucketParts(series string) (name, le string, ok bool) {
	i := strings.Index(series, "_bucket{")
	if i < 0 {
		return "", "", false
	}
	name = series[:i]
	rest := series[i+len("_bucket{"):]
	if !strings.HasSuffix(rest, "}") {
		return "", "", false
	}
	rest = strings.TrimSuffix(rest, "}")
	if !strings.HasPrefix(rest, `le="`) || !strings.HasSuffix(rest, `"`) {
		return "", "", false
	}
	le = strings.TrimSuffix(strings.TrimPrefix(rest, `le="`), `"`)
	if strings.Contains(le, `"`) {
		return "", "", false
	}
	return name, le, true
}
