package serve

// Crash recovery (DESIGN.md §13.6): an append-only, fsync'd session
// journal. Every session open is recorded with its full OpenRequest
// and the content-address (deployKey) of the deployment it resolved
// to; every close is recorded by id. `served -recover` replays the
// journal on boot (Server.Restore): surviving sessions — opens without
// a matching close — are re-opened through the normal open path with
// their original ids, and the recomputed deployment key is checked
// against the journaled one, so a corrupted or mismatched journal is
// detected instead of silently serving wrong geometry. Results are NOT
// journaled: deployments are content-addressed and every pipeline is
// deterministic, so a recovered daemon answers bit-identically to one
// that never crashed (TestJournalRecoverDifferential) — the only loss
// is warm cache state, which refills on first touch.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Journal record operations.
const (
	journalOpOpen  = "open"
	journalOpClose = "close"
)

// JournalRecord is one line of the session journal.
type JournalRecord struct {
	// Op is "open" or "close".
	Op string `json:"op"`
	// ID is the session id the record concerns.
	ID string `json:"id"`
	// Key is the deployment content-address (deployKey, 16 hex digits)
	// the open resolved to; Restore verifies the replay reproduces it.
	Key string `json:"key,omitempty"`
	// Open is the original open request (open records only).
	Open *OpenRequest `json:"open,omitempty"`
}

// Journal is an append-only session journal: one JSON record per line,
// fsync'd per append so a crash loses at most the record being
// written (whose torn tail ReadJournal tolerates).
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	records atomic.Uint64
	errs    atomic.Uint64
}

// OpenJournal opens (creating if absent) the journal at path for
// appending.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// appendRecord writes one record and fsyncs. An error counts toward
// Errors and is returned (the open path fails the request on it; the
// close path tolerates it).
func (j *Journal) appendRecord(rec JournalRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		j.errs.Add(1)
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	buf = append(buf, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf); err != nil {
		j.errs.Add(1)
		return fmt.Errorf("serve: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.errs.Add(1)
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	j.records.Add(1)
	return nil
}

// Records returns the number of records appended through this handle.
func (j *Journal) Records() uint64 { return j.records.Load() }

// Errors returns the number of failed appends.
func (j *Journal) Errors() uint64 { return j.errs.Load() }

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// ReadJournal parses the journal at path. A malformed or unterminated
// FINAL line is a torn tail from a crash mid-append and is dropped;
// malformed interior lines mean real corruption and error out. A
// missing file is an empty journal (first boot with -recover).
func ReadJournal(path string) ([]JournalRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read journal: %w", err)
	}
	defer f.Close()

	var out []JournalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	lineNo := 0
	var torn *int // line number of a parse failure, tolerated only at EOF
	for sc.Scan() {
		lineNo++
		if torn != nil {
			return nil, fmt.Errorf("serve: journal corrupt at line %d (non-final malformed record)", *torn)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.ID == "" ||
			(rec.Op != journalOpOpen && rec.Op != journalOpClose) ||
			(rec.Op == journalOpOpen && rec.Open == nil) {
			n := lineNo
			torn = &n
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: read journal: %w", err)
	}
	return out, nil
}

// Restore replays journal records into a fresh Server: every open
// without a matching close is re-opened through the normal open path
// (content-addressed deployment dedup included) under its original
// session id. Replayed opens are NOT re-journaled — their records are
// already in the journal backing cfg.Journal. Returns the number of
// sessions restored. Call before serving traffic.
func (s *Server) Restore(recs []JournalRecord) (int, error) {
	live := make(map[string]JournalRecord)
	for _, rec := range recs {
		switch rec.Op {
		case journalOpOpen:
			live[rec.ID] = rec
		case journalOpClose:
			delete(live, rec.ID)
		}
	}
	// Deterministic replay order: numeric session order (also keeps
	// nextSession monotone without a second pass), ties — every
	// non-conforming id, and numerals spelled differently like "s7" and
	// "s07" — broken by the id string.
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		oi, oj := sessionOrdinal(ids[i]), sessionOrdinal(ids[j])
		if oi != oj {
			return oi < oj
		}
		return ids[i] < ids[j]
	})

	restored := 0
	for _, id := range ids {
		rec := live[id]
		sess, _, err := s.openSession(*rec.Open, id, false)
		if err != nil {
			return restored, fmt.Errorf("serve: restore session %s: %w", id, err)
		}
		if rec.Key != "" {
			if got := fmt.Sprintf("%016x", sess.dep.key); got != rec.Key {
				s.dropSession(id)
				return restored, fmt.Errorf("serve: restore session %s: deployment key %s != journaled %s (journal/geometry mismatch)", id, got, rec.Key)
			}
		}
		restored++
	}
	s.mu.Lock()
	s.recovered = restored
	s.mu.Unlock()
	return restored, nil
}

// recoveredCount returns the number of sessions rebuilt by Restore.
func (s *Server) recoveredCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// sessionOrdinal extracts the numeric part of a session id ("s12" →
// 12); non-conforming ids sort last in lexical order via a large bias.
func sessionOrdinal(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 63)
	if err != nil {
		return 1 << 62
	}
	return n
}
