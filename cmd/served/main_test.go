package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuf is an io.Writer safe to read while run() writes from its own
// goroutine.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// waitListen polls the output for the bound address.
func waitListen(t *testing.T, out *lockedBuf) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never reported its address; output:\n%s", out.String())
	return ""
}

// TestServedSIGTERMDrain boots the daemon, verifies it serves, then sends
// a real SIGTERM and requires a clean drain: run() returns nil and reports
// draining + stopped.
func TestServedSIGTERMDrain(t *testing.T) {
	var out lockedBuf
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"}, &out)
	}()
	addr := waitListen(t, &out)

	// The daemon is live: open a session over HTTP.
	resp, err := http.Post("http://"+addr+"/v1/sessions", "application/json",
		strings.NewReader(`{"points":[[0,0],[1.5,0],[0,1.5],[3,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var open struct {
		SessionID string `json:"session_id"`
	}
	json.NewDecoder(resp.Body).Decode(&open)
	resp.Body.Close()
	if open.SessionID == "" {
		t.Fatal("open returned no session id")
	}

	// Real signal, real drain path (signal.NotifyContext intercepts it).
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM; output:\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{"served: draining", "served: stopped"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestServedJournalRecover is the kill-restart smoke: daemon one
// journals two session opens and dies on SIGTERM without closing them
// (a drain writes no close records — exactly like a crash for journal
// purposes); daemon two boots with -recover on the same journal and
// must serve runs on the ORIGINAL session ids.
func TestServedJournalRecover(t *testing.T) {
	journal := t.TempDir() + "/sessions.journal"
	boot := func(args ...string) (*lockedBuf, chan error, string) {
		var out lockedBuf
		done := make(chan error, 1)
		go func() {
			done <- run(append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s", "-journal", journal}, args...), &out)
		}()
		return &out, done, waitListen(t, &out)
	}
	stop := func(t *testing.T, done chan error) {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after SIGTERM, want nil", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain after SIGTERM")
		}
	}
	openSession := func(t *testing.T, addr, points string) string {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/v1/sessions", "application/json",
			strings.NewReader(`{"points":`+points+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var open struct {
			SessionID string `json:"session_id"`
		}
		json.NewDecoder(resp.Body).Decode(&open)
		resp.Body.Close()
		if open.SessionID == "" {
			t.Fatal("open returned no session id")
		}
		return open.SessionID
	}

	_, done1, addr1 := boot()
	id1 := openSession(t, addr1, `[[0,0],[1.5,0],[0,1.5],[3,3]]`)
	id2 := openSession(t, addr1, `[[0,0],[2,0],[0,2]]`)
	stop(t, done1)

	out2, done2, addr2 := boot("-recover")
	if !strings.Contains(out2.String(), "recovered 2 sessions") {
		t.Fatalf("restart did not report recovery:\n%s", out2.String())
	}
	for _, id := range []string{id1, id2} {
		resp, err := http.Post("http://"+addr2+"/v1/sessions/"+id+"/run", "application/json",
			strings.NewReader(`{"pipeline":"init-uniform","options":{"seed":1}}`))
		if err != nil {
			t.Fatal(err)
		}
		var run struct {
			ResultID string `json:"result_id"`
		}
		json.NewDecoder(resp.Body).Decode(&run)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || run.ResultID == "" {
			t.Fatalf("run on recovered session %s: status %d, result %q", id, resp.StatusCode, run.ResultID)
		}
	}
	stop(t, done2)
}
