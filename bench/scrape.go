package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of the daemon's /metrics: series text (name plus
// label set, as exposed) → value. The harness reads the daemon's own
// outputs, never private hooks.
type scrape map[string]float64

func scrapeMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseScrape(string(data))
}

func parseScrape(text string) (scrape, error) {
	s := scrape{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: malformed sample %q", line)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// delta is after−before for one series over the measured window.
func (after scrape) delta(before scrape, series string) float64 {
	return after[series] - before[series]
}

// ratio returns num/(num+rest), or 0 when nothing was counted.
func ratio(num, rest float64) float64 {
	if num+rest == 0 {
		return 0
	}
	return num / (num + rest)
}
