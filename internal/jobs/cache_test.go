package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"muzha/internal/harness"
)

// The result store is harness.Cache. Its capacity policy — the LRU caps
// that ServerConfig.CacheLimit sets and the compaction at open — is
// tested here, with the daemon that bounds it; its line format and
// torn-tail handling are tested in package harness.

func openTestCache(t *testing.T, path string, limit harness.CacheLimit) *harness.Cache {
	t.Helper()
	c, err := harness.OpenCache(path, limit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func val(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))
}

func TestCacheEvictsLRUByEntryCap(t *testing.T) {
	c := openTestCache(t, filepath.Join(t.TempDir(), "cache.jsonl"), harness.CacheLimit{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("h%d", i), val(i))
	}
	// Touch h0 so h1 becomes the least recently used.
	if _, ok := c.Get("h0"); !ok {
		t.Fatal("h0 missing before eviction")
	}
	c.Put("h3", val(3))
	if _, ok := c.Get("h1"); ok {
		t.Fatal("least-recently-used entry h1 survived the cap")
	}
	for _, h := range []string{"h0", "h2", "h3"} {
		if _, ok := c.Get(h); !ok {
			t.Fatalf("%s evicted out of LRU order", h)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.MaxEntries != 3 {
		t.Fatalf("stats = %+v, want 3 entries / 1 eviction", st)
	}
}

func TestCacheEvictsByByteCap(t *testing.T) {
	c := openTestCache(t, filepath.Join(t.TempDir(), "cache.jsonl"), harness.CacheLimit{MaxBytes: 24})
	c.Put("a", val(1)) // 7 bytes
	c.Put("b", val(2))
	c.Put("c", val(3))
	if c.Len() != 3 {
		t.Fatalf("3 small entries should fit: len=%d", c.Len())
	}
	c.Put("d", val(4)) // 28 bytes total: evict "a"
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte cap did not evict the oldest entry")
	}
	if st := c.Stats(); st.Bytes > 24 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want <=24 bytes / 1 eviction", st)
	}
	// An entry larger than the whole cap still caches (never evict the
	// entry just inserted) and pushes everything else out.
	big := json.RawMessage(`{"v":"` + string(make([]byte, 64)) + `"}`)
	c.Put("huge", big)
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversized entry was evicted on insert")
	}
	if c.Len() != 1 {
		t.Fatalf("oversized insert left %d entries, want 1", c.Len())
	}
}

func TestCacheCompactsDeadWeightOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c := openTestCache(t, path, harness.CacheLimit{MaxEntries: 2})
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("h%d", i), val(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	r := openTestCache(t, path, harness.CacheLimit{MaxEntries: 2})
	if r.Len() != 2 {
		t.Fatalf("reopened cache has %d entries, want the 2 survivors", r.Len())
	}
	for _, h := range []string{"h8", "h9"} {
		if _, ok := r.Get(h); !ok {
			t.Fatalf("most-recent entry %s lost across reopen", h)
		}
	}
	if st := r.Stats(); st.Evictions != 0 {
		t.Fatalf("reopen counted load-time churn as evictions: %+v", st)
	}
	compacted, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("journal not compacted: %d -> %d bytes", grown.Size(), compacted.Size())
	}
}

func TestCacheUnboundedKeepsEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c := openTestCache(t, path, harness.CacheLimit{})
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("h%d", i), val(i))
	}
	if c.Len() != 50 {
		t.Fatalf("unbounded cache evicted: len=%d", c.Len())
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("unbounded cache reports evictions: %+v", st)
	}
}

// TestCachePutAfterCompactionSurvivesReopen: the compaction at open
// swaps the journal's file handle, so a Put after it must land in the
// compacted file, not the one it replaced.
func TestCachePutAfterCompactionSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c := openTestCache(t, path, harness.CacheLimit{})
	c.Put("a", val(1))
	c.Put("a", val(1)) // superseded line: the next open compacts
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestCache(t, path, harness.CacheLimit{})
	r.Put("b", val(2))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTestCache(t, path, harness.CacheLimit{})
	for _, h := range []string{"a", "b"} {
		if _, ok := r2.Get(h); !ok {
			t.Fatalf("entry %s lost across the compacting reopen", h)
		}
	}
	if r2.Len() != 2 || r2.Skipped() != 0 {
		t.Fatalf("reopened %d entries, %d skipped; want 2, 0", r2.Len(), r2.Skipped())
	}
}

// TestServerLogsCacheSkippedLines: NewServer reports the unparseable
// lines the cache load dropped, as it does for the store.
func TestServerLogsCacheSkippedLines(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cache.jsonl"), []byte("garbage\n{\"key\":\"h\",\"ok\":tr"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	newTestServer(t, ServerConfig{DataDir: dir, Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	for _, l := range logs {
		if l == "jobs: cache journal: skipped 2 unparseable line(s)" {
			return
		}
	}
	t.Fatalf("no cache skip count in the server log: %q", logs)
}
