// Package jobs is the simulation-as-a-service layer behind the `muzha serve`
// daemon: a job store journaled to JSONL (crash-recoverable), a
// content-addressed result cache keyed by Config.Hash(), an HTTP server
// with bounded-queue admission control and SSE progress streaming, and
// a small client used by `muzha run -remote`.
//
// The contract that makes the cache sound is determinism: a Config
// fully determines its Result, so the canonical encoding of the Config
// (its Hash) is a complete identity for the canonical encoding of the
// Result. Identical (config, seed) submissions are served from the
// cache byte-for-byte without re-running the simulation.
package jobs

import (
	"encoding/json"

	"muzha"
	"muzha/internal/canon"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: queued -> running -> done|failed. A daemon killed
// mid-job reopens its store with the interrupted job back in queued.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Job is one submission's record — the API response body and the
// snapshot the Store journals on every state transition.
type Job struct {
	// ID is the daemon-assigned identifier, e.g. "j000007-1a2b3c4d5e6f".
	ID string `json:"id"`
	// Hash is Config.Hash(), the result-cache key.
	Hash string `json:"hash"`
	// Client identifies the submitter for per-client admission limits.
	Client string `json:"client,omitempty"`
	State  State  `json:"state"`
	// Cached marks a job satisfied from the result cache at admission,
	// without running.
	Cached bool `json:"cached,omitempty"`
	// Config is the canonical encoding of the submitted muzha.Config.
	Config json.RawMessage `json:"config,omitempty"`
	// Result is the canonical Result encoding once the job is done. It
	// is byte-identical whether the run was fresh or a cache hit.
	Result json.RawMessage `json:"result,omitempty"`
	// Error and Class describe a failed job (see muzha.Classify).
	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"`
	// Progress is the latest in-run snapshot.
	Progress muzha.ProgressUpdate `json:"progress"`
}

// EncodeResult renders a Result in the daemon's canonical form:
// sanitized (non-finite floats zeroed, so encoding cannot fail on a
// degenerate flow) and canonical JSON (sorted keys). Every producer of
// persisted or served results — the daemon's cache and responses,
// `muzha run -out` — uses this one encoder, which is what makes "cached
// result" and "fresh result" byte-comparable.
func EncodeResult(r *muzha.Result) (json.RawMessage, error) {
	r.Sanitize()
	return canon.JSON(r)
}
