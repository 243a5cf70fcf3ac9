package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// scanJSONL feeds every non-empty line of r to fn. A line fn rejects
// (returns false) — a truncated final line from a kill mid-write, or
// any other corruption — is counted and skipped, never fatal: losing
// one in-flight record must not discard the rest of a journal. It also
// reports how the input ends: whole is the length of its prefix up to
// and including the last newline, and tailOK reports a final
// unterminated line that fn accepted.
func scanJSONL(r io.Reader, fn func(line []byte) bool) (skipped int, whole int64, tailOK bool, err error) {
	terminated := true
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if terminated = adv > 0 && data[adv-1] == '\n'; terminated {
			whole += int64(adv)
		}
		return adv, tok, err
	})
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ok := fn(line)
		if !ok {
			skipped++
		}
		tailOK = !terminated && ok
	}
	return skipped, whole, tailOK, sc.Err()
}

// OpenJSONL opens (creating if absent) the append-only JSONL file at
// path, feeds its lines to load as scanJSONL does, and returns the file
// positioned for appending. A final line without its newline is the
// torn tail of a kill mid-write: if load accepted it, the newline is
// supplied; otherwise the tail is truncated away. Either way the next
// append starts on a line of its own instead of being glued to the
// garbage and lost on the following open. Every append-only journal
// (harness.Journal, the daemon's job store and result cache, the chaos
// corpus) opens through here.
func OpenJSONL(path string, load func(line []byte) bool) (f *os.File, skipped int, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	skipped, whole, tailOK, err := scanJSONL(f, load)
	if err == nil {
		err = mendTail(f, whole, tailOK)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, skipped, nil
}

// mendTail positions f at its end so that the end is a line boundary:
// it terminates an accepted final line, or truncates f to its first
// whole bytes.
func mendTail(f *os.File, whole int64, tailOK bool) error {
	size, err := f.Seek(0, io.SeekEnd)
	switch {
	case err != nil || size == whole:
		return err
	case tailOK:
		_, err = f.Write([]byte{'\n'})
		return err
	}
	if err := f.Truncate(whole); err != nil {
		return err
	}
	_, err = f.Seek(whole, io.SeekStart)
	return err
}

// Entry is one journaled job outcome — a single JSONL line. Value holds
// the job's marshaled result and is decoded by the caller on resume.
type Entry struct {
	Key   string          `json:"key"`
	OK    bool            `json:"ok"`
	Class string          `json:"class,omitempty"`
	Err   string          `json:"err,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`
}

// Journal is an append-only JSONL record of finished jobs. Opening an
// existing journal loads its entries so a restarted sweep can skip them;
// Record appends one line per completed job as workers finish, so a
// killed sweep loses at most the in-flight runs. Record and Lookup are
// safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	done    map[string]Entry
	err     error
	skipped int
}

// OpenJournal opens (creating if absent) the journal at path and loads
// every parseable entry. A truncated final line — the signature of a
// kill mid-write — is skipped, not fatal; Skipped reports how many lines
// were dropped.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: make(map[string]Entry)}
	f, skipped, err := OpenJSONL(path, func(line []byte) bool {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			return false
		}
		j.done[e.Key] = e
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	j.f, j.skipped = f, skipped
	return j, nil
}

// Lookup returns the journaled entry for key, if one exists.
func (j *Journal) Lookup(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.done[key]
	return e, ok
}

// Skipped reports how many unparseable lines the load dropped.
func (j *Journal) Skipped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.skipped
}

// Len reports how many entries the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends one entry. The first write error latches — the sweep
// must not die on journal I/O — and surfaces via Err and Close.
func (j *Journal) Record(e Entry) {
	b, err := json.Marshal(e)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		if j.err == nil {
			j.err = fmt.Errorf("harness: marshal journal entry %q: %w", e.Key, err)
		}
		return
	}
	j.done[e.Key] = e
	if j.err != nil {
		return
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		j.err = fmt.Errorf("harness: write journal: %w", err)
	}
}

// Err returns the first latched journal I/O error.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the journal, returning any latched write
// error so a truncated journal is never mistaken for a complete one.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	cerr := j.f.Close()
	if j.err != nil {
		return j.err
	}
	return cerr
}
