package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"xmlviews/internal/serve"
)

// opResult is one completed operation as the load generator saw it.
type opResult struct {
	req      *request
	measured bool          // falls in the measured window, not warm-up
	lat      time.Duration // closed loop: send→last body byte; open loop: due time→last body byte
	late     time.Duration // open loop: how long after its due time the request was sent
	status   int
	err      error
	bytes    int

	// Query answers.
	epoch      int64
	total      int
	window     uint64 // hash of columns and rendered rows
	planCached bool
	vectorized bool

	// Update acks.
	ackEpoch int64
}

func (r *opResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// client issues requests over keep-alive connections to one daemon.
type client struct {
	base string
	http *http.Client
}

// newClient shares at most conns keep-alive connections among all the
// harness's goroutines: the load comes from one process with at most nproc
// connections.
func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and times it to the last body byte; decoding and
// hashing the answer happen after the clock stops.
func (c *client) do(req *request) opResult {
	res := opResult{req: req}
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, c.base+req.target, body)
	if err != nil {
		res.err = err
		return res
	}
	start := time.Now()
	resp, err := c.http.Do(hr)
	if err != nil {
		res.err = err
		res.lat = time.Since(start)
		return res
	}
	data, err := io.ReadAll(resp.Body)
	res.lat = time.Since(start)
	resp.Body.Close()
	res.status, res.bytes = resp.StatusCode, len(data)
	if err != nil {
		res.err = err
		return res
	}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s %s: status %d: %s", req.method, req.target, resp.StatusCode, bytes.TrimSpace(data))
		return res
	}
	if req.class == classUpdate {
		var ack serve.UpdateResponse
		if res.err = json.Unmarshal(data, &ack); res.err == nil {
			res.ackEpoch = ack.Epoch
		}
		return res
	}
	var ans serve.QueryResponse
	if res.err = json.Unmarshal(data, &ans); res.err != nil {
		return res
	}
	res.epoch, res.total = ans.Epoch, ans.TotalRows
	res.planCached, res.vectorized = ans.PlanCached, ans.ExecPath == "vectorized"
	res.window = hashWindow(ans.Columns, ans.Rows)
	return res
}

// hashWindow fingerprints a response window; the oracle hashes the expected
// window the same way.
func hashWindow(cols []string, rows [][]string) uint64 {
	h := fnv.New64a()
	write := func(s string) {
		_, _ = h.Write([]byte(s)) // hash.Hash writes never fail
		_, _ = h.Write([]byte{0})
	}
	for _, c := range cols {
		write(c)
	}
	for _, row := range rows {
		_, _ = h.Write([]byte{1})
		for _, v := range row {
			write(v)
		}
	}
	return h.Sum64()
}

// window is the timing of one run: requests sent before measureFrom warm
// the daemon and are checked but not timed; clients stop issuing at until.
type window struct {
	measureFrom time.Time
	until       time.Time
}

// runClosed is one closed-loop client: it sends its next request only after
// the previous one completed, so a slower daemon receives less load.
func runClosed(c *client, gen generator, w window) []opResult {
	var out []opResult
	for {
		sent := time.Now()
		if !sent.Before(w.until) {
			return out
		}
		res := c.do(gen.next())
		res.measured = !sent.Before(w.measureFrom)
		out = append(out, res)
	}
}

// clock lets the open-loop test substitute virtual time.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runOpen is the open-loop writer: request k is due at start+k*interval
// whatever happened to request k-1. Requests go out in order on one
// connection (a later update may name a node an earlier one inserted), so a
// stall delays the requests behind it; timing each from its due time, not
// from when it was finally sent, charges that wait to the daemon instead of
// silently dropping offered load. late is the part of the latency spent
// before sending — zero while the generator keeps up.
func runOpen(clk clock, do func(*request) opResult, gen generator, start time.Time, interval time.Duration, w window) []opResult {
	var out []opResult
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(w.until) {
			return out
		}
		clk.SleepUntil(due)
		late := clk.Now().Sub(due)
		if late < 0 {
			late = 0
		}
		res := do(gen.next())
		res.late = late
		res.lat += late
		res.measured = !due.Before(w.measureFrom)
		out = append(out, res)
	}
}

// drive runs closed-loop clients and an optional open-loop one concurrently
// until the window ends and returns every result, the clients' in arrival
// order per client.
func drive(c *client, closed []generator, open generator, interval time.Duration, w window) (closedRes, openRes []opResult) {
	var wg sync.WaitGroup
	perClient := make([][]opResult, len(closed))
	for i, g := range closed {
		i, g := i, g
		wg.Add(1)
		go func() {
			defer wg.Done()
			perClient[i] = runClosed(c, g, w)
		}()
	}
	if open != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			openRes = runOpen(wallClock{}, c.do, open, time.Now(), interval, w)
		}()
	}
	wg.Wait()
	for _, rs := range perClient {
		closedRes = append(closedRes, rs...)
	}
	return closedRes, openRes
}
