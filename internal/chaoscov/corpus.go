// Package chaoscov is the coverage-guided chaos fuzzer: it replaces
// blind seed iteration with a feedback loop that tracks which
// Sometimes assertions and failure classes each scenario reached,
// keeps the scenarios that expanded coverage in a persistent corpus,
// mutates new scenarios from recent coverage-expanding parents —
// steering deliberately toward assertions nothing has reached yet —
// and automatically shrinks every failing scenario to a minimal
// reproducer.
//
// Coverage is two-dimensional: the run's reached Sometimes assertions
// (Result.SometimesCoverage) and its harness failure class
// ("class:panic", "class:livelock", ... — see muzha.Classify). A run's
// coverage signature is the hash of the union; the corpus keeps one
// entry per distinct signature, in the spirit of fuzzing-harness
// corpus distillation.
//
// The corpus is a JSONL journal with the same durability contract as
// the result store: entries append as runs finish, a loop killed
// mid-write loses at most one line on reload, and a restarted loop
// resumes from the accumulated coverage instead of rediscovering it.
package chaoscov

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"muzha/internal/jsonl"
	"muzha/internal/scenario"
)

// classElement converts a failure class to its coverage-element form.
func classElement(class string) string { return "class:" + class }

// Signature hashes a run's coverage — reached Sometimes assertions
// plus the failure-class element — into a 16-hex-character corpus
// key. Order-insensitive: the elements are sorted before hashing.
func Signature(coverage []string, class string) string {
	elems := append([]string(nil), coverage...)
	if class != "" {
		elems = append(elems, classElement(class))
	}
	sort.Strings(elems)
	sum := sha256.Sum256([]byte(strings.Join(elems, "\n")))
	return hex.EncodeToString(sum[:8])
}

// Entry is one corpus record — a scenario that produced a coverage
// signature no earlier scenario had.
type Entry struct {
	// ID is the entry's position in the corpus.
	ID int `json:"id"`
	// Parent is the corpus ID this spec was mutated from; -1 for a
	// freshly generated spec.
	Parent int `json:"parent"`
	// Spec is the canonical scenario encoding.
	Spec json.RawMessage `json:"spec"`
	// Coverage lists the Sometimes assertions the run reached (sorted).
	Coverage []string `json:"coverage"`
	// Class is the run's failure class ("" for a healthy run).
	Class string `json:"class,omitempty"`
	// New lists the coverage elements (assertion names and
	// class:<name> markers) this entry reached first, corpus-wide.
	New []string `json:"new,omitempty"`
	// Sig is Signature(Coverage, Class).
	Sig string `json:"sig"`
}

// Corpus accumulates coverage-expanding scenarios, persisted as JSONL
// when opened with a path. Not safe for concurrent use; the chaos
// loop is sequential by design (each run's coverage steers the next).
type Corpus struct {
	entries []Entry
	bySig   map[string]int    // signature -> entry ID
	seen    map[string]bool   // global coverage elements
	log     *jsonl.Log[Entry] // nil when the corpus is in memory only
}

// OpenCorpus opens (creating if absent) the corpus journal at path
// and loads every parseable entry; an empty path keeps the corpus in
// memory only. A truncated final line — a loop killed mid-append — is
// skipped, never fatal.
func OpenCorpus(path string) (*Corpus, error) {
	c := newCorpus()
	if path == "" {
		return c, nil
	}
	log, err := jsonl.Open(path, c.absorb)
	if err != nil {
		return nil, fmt.Errorf("chaoscov: open corpus: %w", err)
	}
	c.log = log
	return c, nil
}

func newCorpus() *Corpus {
	return &Corpus{bySig: make(map[string]int), seen: make(map[string]bool)}
}

// absorb folds one loaded entry into the in-memory state, re-deriving
// IDs and the seen set so a hand-edited or merged corpus file stays
// coherent. It rejects an entry without a signature or spec.
func (c *Corpus) absorb(e Entry) bool {
	if e.Sig == "" || len(e.Spec) == 0 {
		return false
	}
	if _, dup := c.bySig[e.Sig]; dup {
		return true
	}
	e.ID = len(c.entries)
	c.bySig[e.Sig] = e.ID
	for _, el := range e.elements() {
		c.seen[el] = true
	}
	c.entries = append(c.entries, e)
	return true
}

func (e Entry) elements() []string {
	elems := append([]string(nil), e.Coverage...)
	if e.Class != "" {
		elems = append(elems, classElement(e.Class))
	}
	return elems
}

// Add records one run's outcome. When the coverage signature is new,
// the entry joins the corpus (persisted immediately when journaling)
// and Add returns it with added=true; New on the returned entry lists
// the coverage elements nothing had reached before. A duplicate
// signature returns added=false and changes nothing.
func (c *Corpus) Add(spec scenario.Spec, parent int, coverage []string, class string) (Entry, bool, error) {
	sig := Signature(coverage, class)
	if _, dup := c.bySig[sig]; dup {
		return Entry{}, false, nil
	}
	raw, err := spec.Canonical()
	if err != nil {
		return Entry{}, false, err
	}
	e := Entry{
		ID:       len(c.entries),
		Parent:   parent,
		Spec:     raw,
		Coverage: append([]string(nil), coverage...),
		Class:    class,
		Sig:      sig,
	}
	sort.Strings(e.Coverage)
	for _, el := range e.elements() {
		if !c.seen[el] {
			e.New = append(e.New, el)
		}
	}
	sort.Strings(e.New)
	for _, el := range e.elements() {
		c.seen[el] = true
	}
	c.bySig[sig] = e.ID
	c.entries = append(c.entries, e)
	c.log.Append(e)
	return e, true, nil
}

// Len reports the number of corpus entries.
func (c *Corpus) Len() int { return len(c.entries) }

// Entries returns the corpus entries in ID order.
func (c *Corpus) Entries() []Entry { return append([]Entry(nil), c.entries...) }

// Seen reports whether a coverage element (a Sometimes assertion
// name, or "class:"+class) has been reached by any corpus entry.
func (c *Corpus) Seen(element string) bool { return c.seen[element] }

// Coverage returns every coverage element reached so far, sorted:
// Sometimes assertion names and class:<name> markers.
func (c *Corpus) Coverage() []string {
	out := make([]string, 0, len(c.seen))
	for el := range c.seen {
		out = append(out, el)
	}
	sort.Strings(out)
	return out
}

// SometimesCoverage returns only the assertion-name elements.
func (c *Corpus) SometimesCoverage() []string {
	var out []string
	for _, el := range c.Coverage() {
		if !strings.HasPrefix(el, "class:") {
			out = append(out, el)
		}
	}
	return out
}

// Classes returns the distinct failure classes in the corpus, sorted.
func (c *Corpus) Classes() []string {
	var out []string
	for _, el := range c.Coverage() {
		if cl, ok := strings.CutPrefix(el, "class:"); ok {
			out = append(out, cl)
		}
	}
	return out
}

// Frontier returns the IDs of entries that expanded coverage (New
// non-empty), oldest first — the mutation pool the loop draws from.
func (c *Corpus) Frontier() []int {
	var out []int
	for _, e := range c.entries {
		if len(e.New) > 0 {
			out = append(out, e.ID)
		}
	}
	return out
}

// Skipped reports how many unparseable journal lines the load dropped.
func (c *Corpus) Skipped() int { return c.log.Skipped() }

// Err returns the first latched journal write error.
func (c *Corpus) Err() error { return c.log.Err() }

// Close closes the journal, surfacing any latched write error.
func (c *Corpus) Close() error { return c.log.Close() }

// Info summarizes a corpus file for reporting (the `muzha serve` /v1/stats
// chaos block). It reads the journal fresh on every call, tolerating
// a concurrently appending loop the same way resume does, but never
// creates or repairs the file.
type Info struct {
	// Entries is the number of distinct-coverage corpus entries.
	Entries int `json:"entries"`
	// Sometimes is the number of distinct Sometimes assertions reached.
	Sometimes int `json:"sometimes"`
	// Classes is the number of distinct failure classes seen.
	Classes int `json:"classes"`
	// Failures is the number of corpus entries that failed.
	Failures int `json:"failures"`
}

// ReadInfo summarizes the corpus journal at path. A missing file is an
// empty corpus.
func ReadInfo(path string) (Info, error) {
	c := newCorpus()
	if _, err := jsonl.Read(path, c.absorb); err != nil {
		return Info{}, fmt.Errorf("chaoscov: read corpus: %w", err)
	}
	info := Info{
		Entries:   c.Len(),
		Sometimes: len(c.SometimesCoverage()),
		Classes:   len(c.Classes()),
	}
	for _, e := range c.entries {
		if e.Class != "" {
			info.Failures++
		}
	}
	return info, nil
}
