package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"muzha/internal/harness"
)

// Store is the daemon's file-backed job table: an append-only JSONL
// journal of Job snapshots, one line per state transition, last
// snapshot wins. Opening a store replays the journal with the harness's
// truncated-line-tolerant scanner, so a SIGKILL mid-write costs at most
// the half-written line; jobs whose last snapshot was queued or running
// are handed back as Requeued() for the daemon to re-run.
type Store struct {
	mu       sync.Mutex
	f        *os.File
	jobs     map[string]*Job
	order    []string // IDs by first appearance, i.e. submission order
	requeued []string
	nextSeq  uint64
	skipped  int
	err      error // first journal write error, latched
}

// OpenStore opens (creating if absent) the job journal at path and
// replays it.
func OpenStore(path string) (*Store, error) {
	s := &Store{jobs: make(map[string]*Job)}
	f, skipped, err := harness.OpenJSONL(path, func(line []byte) bool {
		var j Job
		if err := json.Unmarshal(line, &j); err != nil || j.ID == "" {
			return false
		}
		if _, seen := s.jobs[j.ID]; !seen {
			s.order = append(s.order, j.ID)
		}
		cp := j
		s.jobs[j.ID] = &cp
		if seq, ok := seqOf(j.ID); ok && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	s.f, s.skipped = f, skipped
	// Interrupted work — anything not terminal — goes back to the queue.
	// The requeue is journaled so the file reflects what the daemon will
	// actually do, even if it is killed again before the job starts.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State.Terminal() {
			continue
		}
		j.State = StateQueued
		j.Progress = Progress{}
		s.appendLocked(*j)
		s.requeued = append(s.requeued, id)
	}
	return s, nil
}

// seqOf extracts the numeric sequence from an ID like "j000042-ab12…".
func seqOf(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	num, _, _ := strings.Cut(id[1:], "-")
	seq, err := strconv.ParseUint(num, 10, 64)
	return seq, err == nil
}

// Requeued lists the jobs reset to queued during open, in submission
// order.
func (s *Store) Requeued() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.requeued...)
}

// Skipped reports how many unparseable journal lines open dropped.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// NewJob creates and journals a queued job for the given config hash,
// client and canonical config bytes, returning a copy.
func (s *Store) NewJob(hash, client string, cfg json.RawMessage) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	short := hash
	if len(short) > 12 {
		short = short[:12]
	}
	j := &Job{
		ID:     fmt.Sprintf("j%06d-%s", s.nextSeq, short),
		Hash:   hash,
		Client: client,
		State:  StateQueued,
		Config: cfg,
	}
	s.nextSeq++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.appendLocked(*j)
	return *j
}

// Get returns a copy of the job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of all jobs in submission order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Transition applies mutate to the job under the store lock, journals
// the new snapshot, and returns a copy.
func (s *Store) Transition(id string, mutate func(*Job)) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	mutate(j)
	s.appendLocked(*j)
	return *j, true
}

// SetProgress updates a job's progress snapshot in memory only.
// Progress is advisory and refreshed every few hundred milliseconds of
// wall time; journaling each tick would bloat the file for data that is
// worthless after a restart.
func (s *Store) SetProgress(id string, p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.Progress = p
	}
}

// appendLocked journals one snapshot. The first write error latches —
// the daemon must not die on journal I/O — and surfaces via Err and
// Close.
func (s *Store) appendLocked(j Job) {
	b, err := json.Marshal(j)
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("jobs: marshal snapshot %q: %w", j.ID, err)
		}
		return
	}
	if s.err != nil {
		return
	}
	if _, err := s.f.Write(append(b, '\n')); err != nil {
		s.err = fmt.Errorf("jobs: write store: %w", err)
	}
}

// Err returns the first latched journal write error.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close closes the journal, returning any latched write error so a
// truncated journal is never mistaken for a healthy one.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cerr := s.f.Close()
	if s.err != nil {
		return s.err
	}
	return cerr
}
