package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// lockedBuf is a goroutine-safe writer: the test reads the daemon's
// output while the daemon goroutine writes it.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestRunMissingDir(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -dir not rejected")
	}
	if err := run([]string{"-dir", "/nonexistent"}, &out); err == nil {
		t.Fatal("missing store not reported")
	}
}

// TestRunServes boots the daemon on a loopback port and round-trips one
// query end to end: a built store directory in, JSON rows out.
func TestRunServes(t *testing.T) {
	dir := t.TempDir()
	doc := xmltree.MustParseParen(`site(item(name "pen") item(name "ink"))`)
	views := []*core.View{{Name: "v1", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true}}
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}

	out := &lockedBuf{}
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-dir", dir, "-addr", "127.0.0.1:0"}, out)
	}()

	// The daemon prints its bound address once listening.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		select {
		case err := <-errc:
			t.Fatalf("daemon exited: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", out.String())
		}
		if i := strings.Index(out.String(), " on "); i >= 0 {
			addr = strings.TrimSpace(out.String()[i+4:])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/query?q=%s", addr, "site(/item[id](/name[v]))"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (%s)", len(qr.Rows), body)
	}
	// Sanity: the store directory is all the daemon needed; the source
	// document never existed on disk.
	if _, err := os.Stat(filepath.Join(dir, "doc.xml")); !os.IsNotExist(err) {
		t.Fatal("test should not have written the document")
	}
}
