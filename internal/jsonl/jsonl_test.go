package jsonl

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rec is a test line; Bad makes it fail to marshal.
type rec struct {
	N   int  `json:"n"`
	Bad bool `json:"-"`
}

var errBad = errors.New("unmarshalable")

func (r rec) MarshalJSON() ([]byte, error) {
	if r.Bad {
		return nil, errBad
	}
	type plain rec
	return json.Marshal(plain(r))
}

func openT(t *testing.T, path string) (*Log[rec], []int) {
	t.Helper()
	var got []int
	l, err := Open(path, func(r rec) bool {
		got = append(got, r.N)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestScan(t *testing.T) {
	input := strings.Join([]string{
		`{"n":1}`,
		``, // blank lines are skipped silently
		`{"n":2}`,
		`{"n":-1}`, // parses, but accept rejects it
		`{"trunc`,  // kill-mid-write residue: rejected, counted, not fatal
	}, "\n")
	var got []int
	skipped, whole, tailOK, err := scan(strings.NewReader(input), func(r rec) bool {
		if r.N < 0 {
			return false
		}
		got = append(got, r.N)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 || tailOK || whole != int64(len(input)-len(`{"trunc`)) {
		t.Fatalf("skipped=%d tailOK=%v whole=%d", skipped, tailOK, whole)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("lines = %v", got)
	}
}

// TestAppendLatchesFirstError: after a failed append, later appends are
// dropped and Close reports the first error, whether the failure was in
// marshaling or in the write.
func TestAppendLatchesFirstError(t *testing.T) {
	t.Run("marshal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l, _ := openT(t, path)
		l.Append(rec{N: 1})
		l.Append(rec{N: 2, Bad: true})
		l.Append(rec{N: 3})
		if err := l.Err(); !errors.Is(err, errBad) {
			t.Fatalf("Err = %v, want the marshal error", err)
		}
		if err := l.Close(); !errors.Is(err, errBad) {
			t.Fatalf("Close = %v, want the marshal error", err)
		}
		if got := readFile(t, path); got != "{\"n\":1}\n" {
			t.Fatalf("file = %q, want only the line before the failure", got)
		}
	})
	t.Run("write", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l, _ := openT(t, path)
		l.Append(rec{N: 1})
		l.f.Close() // every later write fails
		l.Append(rec{N: 2})
		first := l.Err()
		if !errors.Is(first, os.ErrClosed) {
			t.Fatalf("Err = %v, want the write error", first)
		}
		l.Append(rec{N: 3, Bad: true})
		if l.Err() != first {
			t.Fatalf("a later append replaced the latched error: %v", l.Err())
		}
		if err := l.Close(); err != first {
			t.Fatalf("Close = %v, want the first error %v", err, first)
		}
	})
}

func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openT(t, path)
	for n := 1; n <= 4; n++ {
		l.Append(rec{N: n})
	}
	if err := l.Rewrite([]rec{{N: 4}, {N: 2}}); err != nil {
		t.Fatal(err)
	}
	// The append must reach the renamed file, not the replaced one.
	l.Append(rec{N: 5})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, got := openT(t, path)
	defer r.Close()
	if len(got) != 3 || got[0] != 4 || got[1] != 2 || got[2] != 5 || r.Skipped() != 0 {
		t.Fatalf("reopened %v (%d skipped), want [4 2 5]", got, r.Skipped())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

func TestRewriteFailureKeepsOriginal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openT(t, path)
	l.Append(rec{N: 1})
	before := readFile(t, path)
	if err := l.Rewrite([]rec{{N: 7}, {N: 8, Bad: true}}); !errors.Is(err, errBad) {
		t.Fatalf("Rewrite = %v, want the marshal error", err)
	}
	if got := readFile(t, path); got != before {
		t.Fatalf("failed rewrite changed the file: %q -> %q", before, got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed rewrite left its tmp file: %v", err)
	}
	// The log still appends to the original file.
	l.Append(rec{N: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("file = %q", got)
	}
}

func TestReadIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.jsonl")
	if skipped, err := Read(missing, func(rec) bool { return true }); skipped != 0 || err != nil {
		t.Fatalf("missing file: skipped=%d err=%v", skipped, err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("Read created the missing file: %v", err)
	}

	torn := filepath.Join(dir, "torn.jsonl")
	content := "{\"n\":1}\n{\"n\":2}\n{\"n\":"
	if err := os.WriteFile(torn, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []int
	skipped, err := Read(torn, func(r rec) bool { got = append(got, r.N); return true })
	if err != nil || skipped != 1 || len(got) != 2 {
		t.Fatalf("read %v, skipped=%d err=%v", got, skipped, err)
	}
	if after := readFile(t, torn); after != content {
		t.Fatalf("Read changed the file: %q -> %q", content, after)
	}
}

func TestNilLogIsInMemory(t *testing.T) {
	var l *Log[rec]
	l.Append(rec{N: 1})
	if l.Skipped() != 0 || l.Err() != nil || l.Close() != nil {
		t.Fatal("nil log is not an empty in-memory log")
	}
}
