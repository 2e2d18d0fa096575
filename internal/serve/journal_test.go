package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestJournalAppendRead(t *testing.T) {
	settleGoroutines(t)
	path := filepath.Join(t.TempDir(), "sessions.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []JournalRecord{
		{Op: journalOpOpen, ID: "s1", Key: "00000000000000aa", Open: &OpenRequest{Points: [][2]float64{{0, 0}, {2, 0}}}},
		{Op: journalOpOpen, ID: "s2", Key: "00000000000000bb", Open: &OpenRequest{Points: [][2]float64{{0, 0}, {3, 0}}}},
		{Op: journalOpClose, ID: "s1"},
	}
	for _, rec := range recs {
		if err := j.appendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if j.Records() != 3 || j.Errors() != 0 {
		t.Fatalf("journal counters = %d/%d, want 3/0", j.Records(), j.Errors())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(recs)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip mismatch:\n%s\n%s", a, b)
	}

	// A torn final line — the crash landed mid-append — is dropped.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"open","id":"s3","ke`)
	f.Close()
	got, err = ReadJournal(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("torn-tail read returned %d records, want 3", len(got))
	}

	// Mid-file corruption is NOT tolerated: a malformed line with valid
	// records after it means the journal is damaged, not torn.
	bad := filepath.Join(t.TempDir(), "bad.journal")
	os.WriteFile(bad, []byte(`{"op":"open","id":"s1","open":{"points":[[0,0]]}}
garbage not json
{"op":"close","id":"s1"}
`), 0o644)
	if _, err := ReadJournal(bad); err == nil {
		t.Fatal("mid-file corruption went undetected")
	}

	// Missing file = empty journal (first boot with -recover).
	if recs, err := ReadJournal(filepath.Join(t.TempDir(), "absent")); err != nil || recs != nil {
		t.Fatalf("missing journal: %v, %v", recs, err)
	}
}

// TestJournalRecoverDifferential is the crash-recovery gate: a daemon
// that crashed (journal intact, process state gone) and was restarted
// with -recover must answer exactly like one that never crashed —
// same live sessions, same session ids, bit-identical run payloads,
// and a monotone session allocator.
func TestJournalRecoverDifferential(t *testing.T) {
	settleGoroutines(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "sessions.journal")

	// A reference daemon with no journal and no crash.
	_, refTS := testDaemon(t, Config{})

	// Daemon A journals three opens and one close, serves a run, then
	// "crashes": we abandon it without closing sessions.
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Config{Journal: j1})
	tsA := httptestServer(t, srvA)

	ptsKeep := testPoints(31, 24)
	ptsDrop := testPoints(32, 24)
	ptsAlso := testPoints(33, 20)
	s1 := openSession(t, tsA, OpenRequest{Points: ptsKeep})
	s2 := openSession(t, tsA, OpenRequest{Points: ptsDrop})
	s3 := openSession(t, tsA, OpenRequest{Points: ptsAlso, Options: OptionsJSON{Seed: 5}})
	req, _ := http.NewRequest(http.MethodDelete, tsA+"/v1/sessions/"+s2.SessionID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	runReq := RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 9}, IncludeTree: true}
	var runA RunResponse
	code, body := postJSON(t, tsA+"/v1/sessions/"+s1.SessionID+"/run", runReq, &runA)
	if code != http.StatusOK {
		t.Fatalf("pre-crash run: %d: %s", code, body)
	}
	// Crash: journal handle closed (fsync'd anyway), server abandoned.
	j1.Close()

	// Daemon B boots with -recover semantics.
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j2.Close() })
	srvB := New(Config{Journal: j2})
	tsB := httptestServer(t, srvB)
	n, err := srvB.Restore(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d sessions, want 2 (s2 was closed)", n)
	}

	var h Health
	resp, err := http.Get(tsB + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Sessions != 2 || h.Recovered != 2 || h.Deployments != 2 {
		t.Fatalf("recovered health = %+v, want 2 sessions / 2 recovered / 2 deployments", h)
	}

	// The closed session stayed closed.
	code, _ = postJSON(t, tsB+"/v1/sessions/"+s2.SessionID+"/run", runReq, nil)
	if code != http.StatusNotFound {
		t.Fatalf("run on crashed-closed session: %d, want 404", code)
	}

	// The surviving session answers under its ORIGINAL id, bit-identical
	// to the never-crashed reference (and to daemon A's pre-crash run,
	// modulo the cached flag — B recomputes).
	var runB RunResponse
	code, body = postJSON(t, tsB+"/v1/sessions/"+s1.SessionID+"/run", runReq, &runB)
	if code != http.StatusOK {
		t.Fatalf("post-recovery run: %d: %s", code, body)
	}
	refSess := openSession(t, refTS.URL, OpenRequest{Points: ptsKeep})
	var runRef RunResponse
	code, body = postJSON(t, refTS.URL+"/v1/sessions/"+refSess.SessionID+"/run", runReq, &runRef)
	if code != http.StatusOK {
		t.Fatalf("reference run: %d: %s", code, body)
	}
	wA, _ := json.Marshal(runA.Result)
	wB, _ := json.Marshal(runB.Result)
	wR, _ := json.Marshal(runRef.Result)
	if !bytes.Equal(wB, wR) {
		t.Fatalf("recovered daemon diverges from never-crashed reference:\n%s\n%s", wB, wR)
	}
	if !bytes.Equal(wB, wA) {
		t.Fatalf("recovered daemon diverges from its own pre-crash answer:\n%s\n%s", wB, wA)
	}

	// The allocator resumes past the journaled ids: a fresh open gets a
	// new id, not a collision with s3.
	s4 := openSession(t, tsB, OpenRequest{Points: testPoints(34, 16)})
	if s4.SessionID == s1.SessionID || s4.SessionID == s2.SessionID || s4.SessionID == s3.SessionID {
		t.Fatalf("post-recovery open reused id %s", s4.SessionID)
	}

	// Post-recovery closes and opens keep journaling: a second crash
	// and recovery sees the latest state.
	req2, _ := http.NewRequest(http.MethodDelete, tsB+"/v1/sessions/"+s3.SessionID, nil)
	if resp, err := http.DefaultClient.Do(req2); err == nil {
		resp.Body.Close()
	}
	recs2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, rec := range recs2 {
		if rec.Op == journalOpOpen {
			live[rec.ID] = true
		} else {
			delete(live, rec.ID)
		}
	}
	if !live[s1.SessionID] || live[s2.SessionID] || live[s3.SessionID] || !live[s4.SessionID] {
		t.Fatalf("journal live set after second round = %v", live)
	}
}

// TestJournalRestoreRejectsMismatch pins the replay safety check: a
// journaled deployment key that the replayed geometry does not
// reproduce fails recovery loudly instead of serving wrong answers.
func TestJournalRestoreRejectsMismatch(t *testing.T) {
	settleGoroutines(t)
	srv := New(Config{})
	defer srv.Close()
	_, err := srv.Restore([]JournalRecord{{
		Op:   journalOpOpen,
		ID:   "s1",
		Key:  "deadbeefdeadbeef",
		Open: &OpenRequest{Points: testPoints(35, 12)},
	}})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("key-mismatched restore: %v, want mismatch error", err)
	}
	if got := srv.recoveredCount(); got != 0 {
		t.Fatalf("recoveredCount = %d after failed restore, want 0", got)
	}
}

// TestJournalRestoreRejectsRetiredFarMode: a journal written while the
// flat far-field mode existed cannot be replayed; Restore names the
// session instead of panicking or opening it under another engine.
func TestJournalRestoreRejectsRetiredFarMode(t *testing.T) {
	settleGoroutines(t)
	srv := New(Config{})
	defer srv.Close()
	eps := 0.5
	_, err := srv.Restore([]JournalRecord{{
		Op: journalOpOpen,
		ID: "s3",
		Open: &OpenRequest{
			Points:  testPoints(35, 12),
			Options: OptionsJSON{MaxRelErr: &eps, FarMode: "flat"},
		},
	}})
	if err == nil || !strings.Contains(err.Error(), "session s3") || !strings.Contains(err.Error(), `"flat"`) {
		t.Fatalf("flat-mode restore: %v, want an error naming session s3 and the mode", err)
	}
	if got := srv.recoveredCount(); got != 0 {
		t.Fatalf("recoveredCount = %d after failed restore, want 0", got)
	}
}

// farModeAutoKey is the deployment key the daemon journaled for
// farModeAutoOpen while far_mode was still a mode selector.
const farModeAutoKey = "0f30f837cd6b7723"

func farModeAutoOpen(mode string) *OpenRequest {
	eps := 0.5
	return &OpenRequest{
		Points:  testPoints(36, 12),
		Options: OptionsJSON{MaxRelErr: &eps, FarMode: mode},
	}
}

// TestJournalRestoreFarModeAuto: far_mode "auto" is a no-op on the wire
// but stays in the deployment signature, so a session journaled with it
// restores under its recorded key, while one journaled with the removed
// forced "quadtree" mode fails restore naming the session and the mode.
func TestJournalRestoreFarModeAuto(t *testing.T) {
	settleGoroutines(t)
	srv := New(Config{})
	defer srv.Close()
	n, err := srv.Restore([]JournalRecord{{Op: journalOpOpen, ID: "s4", Key: farModeAutoKey, Open: farModeAutoOpen("auto")}})
	if err != nil || n != 1 {
		t.Fatalf("far_mode auto restore: restored %d, %v; want 1, nil", n, err)
	}

	srv2 := New(Config{})
	defer srv2.Close()
	_, err = srv2.Restore([]JournalRecord{{Op: journalOpOpen, ID: "s5", Open: farModeAutoOpen("quadtree")}})
	if err == nil || !strings.Contains(err.Error(), "session s5") || !strings.Contains(err.Error(), `"quadtree"`) {
		t.Fatalf("quadtree-mode restore: %v, want an error naming session s5 and the mode", err)
	}
	if got := srv2.recoveredCount(); got != 0 {
		t.Fatalf("recoveredCount = %d after failed restore, want 0", got)
	}
}

// httpTestServer variant that hands back just the base URL (the journal
// tests juggle several daemons at once).
func httptestServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// replaySummary is what a Restore of one journal left behind: its return
// values, the allocator, and each live session with its deployment key.
func replaySummary(recs []JournalRecord) string {
	srv := New(Config{})
	defer srv.Close()
	n, err := srv.Restore(recs)
	var b strings.Builder
	fmt.Fprintf(&b, "restored %d, err %v, recovered %d\n", n, err, srv.recoveredCount())
	srv.mu.Lock()
	defer srv.mu.Unlock()
	fmt.Fprintf(&b, "next %d\n", srv.nextSession)
	ids := make([]string, 0, len(srv.sessions))
	for id := range srv.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "%q %016x\n", id, srv.sessions[id].dep.key)
	}
	return b.String()
}

// FuzzJournalReplay: any bytes read as a journal either fail ReadJournal
// or Restore with an error, or restore the same sessions on every replay,
// and never panic. Restore replays in a sorted id order, so map iteration
// order must not leak into which sessions a failing replay got to open.
func FuzzJournalReplay(f *testing.F) {
	open := func(id, key string, pts [][2]float64) string {
		b, _ := json.Marshal(JournalRecord{Op: journalOpOpen, ID: id, Key: key, Open: &OpenRequest{Points: pts}})
		return string(b) + "\n"
	}
	a, b := [][2]float64{{0, 0}, {2, 0}, {0, 3}}, [][2]float64{{0, 0}, {5, 1}}
	f.Add([]byte(open("s1", "", a) + open("s2", "", b) + `{"op":"close","id":"s1"}` + "\n"))
	// Non-conforming ids tie on their ordinal; one of them fails the key
	// check, so the replay order decides which others were restored.
	f.Add([]byte(open("x", "", a) + open("y", "deadbeefdeadbeef", b) + open("z", "", b) + open("s07", "", a) + open("s7", "", b)))
	f.Add([]byte(open("s3", "", a) + `{"op":"open","id":"s4","ke`))
	f.Add([]byte("garbage\n" + open("s1", "", a)))
	f.Add([]byte(open("s1", "", nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // bounds the point sets a replay opens
		}
		path := filepath.Join(t.TempDir(), "sessions.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJournal(path)
		if err != nil {
			return
		}
		first := replaySummary(recs)
		for k := 0; k < 3; k++ {
			if got := replaySummary(recs); got != first {
				t.Fatalf("replays differ:\n%s\nvs\n%s", first, got)
			}
		}
	})
}
