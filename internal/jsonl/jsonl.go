// Package jsonl is the append-only JSON-lines log behind every
// persistent journal of the program: the daemon's job store
// (jobs.Store), the result store that backs both the daemon's cache and
// sweep -resume files (harness.Cache), and the chaos corpus
// (chaoscov.Corpus).
//
// One value is one line, json.Marshal(v) plus '\n', written with a
// single Write: no buffering and no fsync. A process killed mid-write
// therefore loses at most its last line. The next Open skips that torn
// tail (or keeps it, when it parses) and repairs the file so that later
// appends start on a line of their own.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Log is a JSONL file of values of type T, open for appending. The
// first marshal or write error latches: later appends are dropped, and
// Err and Close report it, so the owner never dies on log I/O and a
// truncated log is never mistaken for a complete one.
//
// A Log is not safe for concurrent use; its owners serialize under
// their own locks. A nil *Log is an in-memory log: Append discards its
// value, Skipped is 0, and Err and Close return nil.
type Log[T any] struct {
	path    string
	f       *os.File
	err     error
	skipped int
}

// Open opens (creating if absent) the log at path and feeds each of its
// lines, decoded into a fresh T, to accept. A line that does not decode
// or that accept rejects is counted (see Skipped) and dropped, never
// fatal: losing one in-flight record must not discard the rest of a
// log. A final line without its newline is the torn tail of a kill
// mid-write: if accept took it, the newline is supplied; otherwise the
// tail is truncated away.
func Open[T any](path string, accept func(T) bool) (*Log[T], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	skipped, whole, tailOK, err := scan(f, accept)
	if err == nil {
		err = mendTail(f, whole, tailOK)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log[T]{path: path, f: f, skipped: skipped}, nil
}

// Read feeds the log at path to accept as Open does and returns how
// many lines it skipped, but never creates, truncates or writes the
// file: a missing file reads as an empty log, and a torn tail is
// skipped and left in place. It is the reader for a log that another
// process may be appending to.
func Read[T any](path string, accept func(T) bool) (skipped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	skipped, _, _, err = scan(f, accept)
	return skipped, err
}

// scan feeds every non-empty line of r, decoded into a fresh T, to
// accept, and counts the lines that fail to decode or that accept
// rejects. It also reports how the input ends: whole is the length of
// its prefix up to and including the last newline, and tailOK reports
// a final unterminated line that accept took.
func scan[T any](r io.Reader, accept func(T) bool) (skipped int, whole int64, tailOK bool, err error) {
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
		var v T
		ok := json.Unmarshal(line, &v) == nil && accept(v)
		if !ok {
			skipped++
		}
		tailOK = !terminated && ok
	}
	return skipped, whole, tailOK, sc.Err()
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

// Append writes v as one line. After an error it does nothing.
func (l *Log[T]) Append(v T) {
	if l == nil || l.err != nil {
		return
	}
	if err := writeLine(l.f, v); err != nil {
		l.err = fmt.Errorf("jsonl: append to %s: %w", l.path, err)
	}
}

func writeLine[T any](f *os.File, v T) error {
	b, err := json.Marshal(v)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	return err
}

// Rewrite atomically replaces the log's contents with vs, in order: it
// writes them to path+".tmp", renames that over path and appends to the
// new file from then on. On error the file and the handle are left as
// they were and the tmp file is removed.
func (l *Log[T]) Rewrite(vs []T) error {
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jsonl: rewrite %s: %w", l.path, err)
	}
	for _, v := range vs {
		if err = writeLine(f, v); err != nil {
			break
		}
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jsonl: rewrite %s: %w", l.path, err)
	}
	l.f.Close()
	l.f = f
	return nil
}

// Skipped reports how many lines Open dropped.
func (l *Log[T]) Skipped() int {
	if l == nil {
		return 0
	}
	return l.skipped
}

// Err returns the first latched error.
func (l *Log[T]) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}

// Close closes the file and returns the latched error if there is one,
// else the close error.
func (l *Log[T]) Close() error {
	if l == nil {
		return nil
	}
	cerr := l.f.Close()
	if l.err != nil {
		return l.err
	}
	return cerr
}
