package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// benchScale is the fixed XMark scale: ~5 MB of XML, ~220k nodes, 6000
// items, 2000 persons, 2000 open and 1000 closed auctions. Everything is
// memory-resident; the daemon's own caches (plan cache 256, subsume cache)
// are what the workloads are sized against.
const benchScale = 1000

// viewDefs is the fixed catalog every workload runs over.
var viewDefs = []struct{ name, pattern string }{
	{"VITEM", `site(//item[id](/name[v]))`},
	{"VITEMLOC", `site(//item[id](/location[v]))`},
	{"VPERSON", `site(//person[id](/name[v]))`},
	{"VINCOME", `site(//person[id](?/profile(/income[v])))`},
	{"VOPEN", `site(//open_auction[id](/initial[v]))`},
	{"VBID", `site(//open_auction[id](n?/bidder[id](/increase[v])))`},
	{"VCLOSED", `site(//closed_auction[id](/price[v]))`},
}

func benchViews() []*core.View {
	views := make([]*core.View, len(viewDefs))
	for i, d := range viewDefs {
		views[i] = &core.View{Name: d.name, Pattern: pattern.MustParse(d.pattern), DerivableParentIDs: true}
	}
	return views
}

// Daemon flags. -maxrewritings 2 is not the shipped default (8): at the
// default the first cold //item query over this catalog drives the daemon
// past 16 GB (README, "excluded templates"). Everything else — plan cache
// 256, -compactchain 16, -groupwait 0, fsync policy — is as shipped.
const maxRewritings = 2

// addressSpaceKB caps the daemon's virtual memory (ulimit -v) so a runaway
// rewrite fails the run instead of the machine. A healthy run peaks below
// 2 GiB of address space.
const addressSpaceKB = 4 << 20

// environment locates the checkout the benchmark runs in. Every file the
// harness writes lives under outDir or buildDir.
type environment struct {
	root     string // checkout root: holds go.mod and cmd/xvserve
	outDir   string // bench/out: traces, result records
	workDir  string // per-process scratch under outDir, removed on exit
	buildDir string // .bench_build: the xvserve binary
	xvserve  string
	nproc    int
}

// newEnvironment checks that root is a checkout and creates the scratch
// directory under outDir.
func newEnvironment(root, outDir string) (*environment, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "xvserve", "main.go")); err != nil {
		return nil, fmt.Errorf("run from the root of a checkout (cmd/xvserve not found under %s)", root)
	}
	e := &environment{
		root:     root,
		outDir:   outDir,
		buildDir: filepath.Join(root, ".bench_build"),
		nproc:    runtime.NumCPU(),
	}
	e.xvserve = filepath.Join(e.buildDir, "xvserve")
	e.workDir = filepath.Join(e.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *environment) cleanup() { _ = os.RemoveAll(e.workDir) }

// buildDaemon compiles the real xvserve from the tree. The go build cache
// makes this a no-op after the first run in a checkout.
func (e *environment) buildDaemon() error {
	cmd := exec.Command("go", "build", "-o", e.xvserve, "./cmd/xvserve")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building xvserve: %w", err)
	}
	return nil
}

func (e *environment) daemonFlags(dir string) []string {
	return []string{"-dir", dir, "-addr", "127.0.0.1:0",
		"-maxrewritings", strconv.Itoa(maxRewritings), "-workers", strconv.Itoa(e.nproc)}
}

// daemon is one running xvserve child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	pid  int
	out  chan struct{} // closed when the stdout drain goroutine ends
}

// startDaemon launches xvserve on an ephemeral loopback port under the
// address-space limit and returns once /healthz answers 200. sh execs the
// daemon, so the child's pid is the daemon's.
func startDaemon(e *environment, dir string) (*daemon, error) {
	script := fmt.Sprintf(`ulimit -v %d; exec "$0" "$@"`, addressSpaceKB)
	args := append([]string{"-c", script, e.xvserve}, e.daemonFlags(dir)...)
	cmd := exec.Command("sh", args...)
	cmd.Stderr = os.Stderr
	// Should the harness be killed, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting xvserve: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, out: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.out)
		defer close(addr)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "xvserve: serving 7 view(s) from <dir> on 127.0.0.1:<port>"
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.Contains(line, "serving") {
				select {
				case addr <- line[i+len(" on "):]:
				default:
				}
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = d.stop()
			return nil, fmt.Errorf("xvserve exited before listening")
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("xvserve did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, fmt.Errorf("xvserve /healthz not ready within 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the daemon down gracefully (SIGTERM, in-flight requests
// drain) and waits for it to exit; a daemon that ignores the signal for
// 20s is killed. Idempotent.
func (d *daemon) stop() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(20*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.out // Wait closes the pipe; drain it first
	err := d.cmd.Wait()
	timer.Stop()
	return err
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.pid)
}

// cpuSeconds reads the daemon's consumed user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

// parseProcStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric cpu fields in /proc stat line")
	}
	const clockTicksPerSecond = 100 // USER_HZ on every Linux ABI Go supports
	return (utime + stime) / clockTicksPerSecond, nil
}

// site is one built store with its daemon: the outcome of a set-up.
type site struct {
	dir      string
	doc      *xmltree.Document // the generated document: answer oracle and ID shadow
	d        *daemon
	setup    time.Duration
	storeLen int64 // bytes in dir right after the build
}

// setUp generates the document, builds the store into dir and starts the
// daemon on it; the returned duration runs from the first generated node to
// the first /healthz 200 — what a user waits for before the first query.
func setUp(e *environment, dir string, docSeed int64, scale int) (*site, error) {
	start := time.Now()
	doc := datagen.XMark(scale, docSeed)
	if _, err := view.BuildStore(dir, doc, benchViews()); err != nil {
		return nil, fmt.Errorf("building store: %w", err)
	}
	d, err := startDaemon(e, dir)
	if err != nil {
		return nil, err
	}
	s := &site{dir: dir, doc: doc, d: d, setup: time.Since(start)}
	if s.storeLen, err = dirBytes(dir); err != nil {
		_ = d.stop()
		return nil, err
	}
	return s, nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			if os.IsNotExist(err) {
				continue // a compaction removed it between ReadDir and Info
			}
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// xmlBytes is the size of the document serialized as XML: the "user data"
// the store's footprint is compared against.
func xmlBytes(doc *xmltree.Document) (int64, error) {
	var n countingWriter
	if err := doc.WriteXML(&n); err != nil {
		return 0, err
	}
	return int64(n), nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// gitCommit names the measured tree; a checkout that is not a git
// repository (the acceptance driver's) reports "unknown".
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
