package jobs

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"muzha/internal/harness"
)

// Cache is the content-addressed result cache: Config.Hash() -> the
// canonical Result encoding produced by EncodeResult. It persists as a
// JSONL journal with the harness's durability contract — append on
// write, truncated-line-tolerant reload, a daemon killed mid-append
// loses at most that one entry — and is bounded: when an entry or byte
// cap is configured, the least-recently-used results are evicted to
// stay under it, so a long-lived daemon's memory does not grow with
// every distinct scenario it has ever simulated.
//
// Eviction is an in-memory policy; the journal stays append-only
// during operation. Dead weight (evicted, superseded or unparseable
// lines) is compacted away at the next open, keeping the file
// proportional to the live set rather than the daemon's full history.
//
// Only successful results are cached. Failures depend on guard budgets
// and host load (a deadline abort on a slow machine says nothing about
// the scenario), so they are recorded in the job store but never served
// to a later identical submission.
type Cache struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	limit   CacheLimit
	byKey   map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	evicted uint64
	err     error
}

// CacheLimit bounds the cache; zero fields are unbounded.
type CacheLimit struct {
	// MaxEntries caps the number of cached results.
	MaxEntries int
	// MaxBytes caps the total size of cached result payloads.
	MaxBytes int64
}

// cacheItem is one LRU slot.
type cacheItem struct {
	key string
	val json.RawMessage
}

// CacheStats is the cache block of the daemon's /v1/stats payload.
type CacheStats struct {
	// Entries and Bytes describe the live set.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Evictions counts entries dropped by the LRU policy since open.
	Evictions uint64 `json:"evictions"`
	// MaxEntries and MaxBytes echo the configured caps (0 = unbounded).
	MaxEntries int   `json:"max_entries,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`
}

// OpenCache opens (creating if absent) the cache journal at path,
// loads it newest-entry-most-recent, applies the limit, and compacts
// the file when it carries dead lines. A zero limit is unbounded —
// the historical behaviour.
func OpenCache(path string, limit CacheLimit) (*Cache, error) {
	c := &Cache{
		path:  path,
		limit: limit,
		byKey: make(map[string]*list.Element),
		lru:   list.New(),
	}
	lines := 0
	f, _, err := harness.OpenJSONL(path, func(line []byte) bool {
		lines++
		var e harness.Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || !e.OK || len(e.Value) == 0 {
			return false
		}
		// File order is append order, so each accepted line is the most
		// recent use of its key seen so far.
		c.putLocked(e.Key, e.Value)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: open cache: %w", err)
	}
	c.f = f
	// Loading counted cap evictions; they describe history, not this
	// process's churn.
	c.evicted = 0
	// Every line beyond the live set — unparseable, superseded by a
	// re-put, or evicted by the cap during load — is dead weight.
	if dead := lines - c.lru.Len(); dead > 0 {
		if err := c.compact(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// compact atomically rewrites the journal with only the live set (in
// LRU order, oldest first, so a future load reconstructs the same
// recency) and swaps the file handle to the fresh copy.
func (c *Cache) compact() error {
	tmp := c.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: compact cache: %w", err)
	}
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		it := el.Value.(*cacheItem)
		b, err := json.Marshal(harness.Entry{Key: it.key, OK: true, Value: it.val})
		if err != nil {
			nf.Close()
			os.Remove(tmp)
			return fmt.Errorf("jobs: compact cache entry %q: %w", it.key, err)
		}
		if _, err := nf.Write(append(b, '\n')); err != nil {
			nf.Close()
			os.Remove(tmp)
			return fmt.Errorf("jobs: compact cache: %w", err)
		}
	}
	if err := os.Rename(tmp, c.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: compact cache: %w", err)
	}
	c.f.Close()
	c.f = nf
	return nil
}

// Get returns the cached canonical Result bytes for a config hash and
// marks the entry as recently used.
func (c *Cache) Get(hash string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[hash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// Put records a result, evicting least-recently-used entries if a cap
// is exceeded. Re-putting the same hash refreshes recency; the value
// is a pure function of the hash, so last-write-wins changes nothing.
func (c *Cache) Put(hash string, result json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(hash, result)
	c.appendLocked(hash, result)
}

// putLocked applies the in-memory insert + LRU eviction; shared by Put
// and the load path (which must not write back what it just read).
func (c *Cache) putLocked(hash string, result json.RawMessage) {
	if el, ok := c.byKey[hash]; ok {
		it := el.Value.(*cacheItem)
		c.bytes += int64(len(result)) - int64(len(it.val))
		it.val = result
		c.lru.MoveToFront(el)
	} else {
		c.byKey[hash] = c.lru.PushFront(&cacheItem{key: hash, val: result})
		c.bytes += int64(len(result))
	}
	for c.overLocked() {
		el := c.lru.Back()
		if el == nil || el == c.lru.Front() {
			break // never evict the entry just inserted
		}
		it := c.lru.Remove(el).(*cacheItem)
		delete(c.byKey, it.key)
		c.bytes -= int64(len(it.val))
		c.evicted++
	}
}

func (c *Cache) overLocked() bool {
	if c.limit.MaxEntries > 0 && c.lru.Len() > c.limit.MaxEntries {
		return true
	}
	return c.limit.MaxBytes > 0 && c.bytes > c.limit.MaxBytes
}

// appendLocked journals one entry; the first write error latches — the
// daemon must not die on cache I/O — and surfaces via Err and Close.
func (c *Cache) appendLocked(hash string, result json.RawMessage) {
	b, err := json.Marshal(harness.Entry{Key: hash, OK: true, Value: result})
	if err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("jobs: marshal cache entry %q: %w", hash, err)
		}
		return
	}
	if c.err != nil {
		return
	}
	if _, err := c.f.Write(append(b, '\n')); err != nil {
		c.err = fmt.Errorf("jobs: write cache: %w", err)
	}
}

// Len reports how many results the cache holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the cache for /v1/stats.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.lru.Len(),
		Bytes:      c.bytes,
		Evictions:  c.evicted,
		MaxEntries: c.limit.MaxEntries,
		MaxBytes:   c.limit.MaxBytes,
	}
}

// Err returns the journal's first latched write error.
func (c *Cache) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close flushes and closes the cache journal.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cerr := c.f.Close()
	if c.err != nil {
		return c.err
	}
	return cerr
}
