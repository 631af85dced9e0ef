package main

import (
	"io"
	"io/fs"
	"sync"
	"time"

	"xpathest/internal/summarystore"
)

// countFS is the summarystore.FS the server runs on: the plain
// directory FS, with every write counted from outside the store. It
// changes nothing about what the store does — in particular it keeps
// the store's fsync policy (fsync the temp file, rename, fsync the
// directory), passing each Sync through to the real file.
//
// A save is timed from the Create of its temp file to the directory
// Sync that ends it. The benchmark has one writing client, so saves do
// not overlap.
type countFS struct {
	inner summarystore.FS

	mu      sync.Mutex
	started time.Time       // guarded by mu: Create of the save in progress
	saves   []time.Duration // guarded by mu
	bytes   int64           // guarded by mu
	syncs   int64           // guarded by mu
}

func newCountFS(inner summarystore.FS) *countFS { return &countFS{inner: inner} }

func (c *countFS) Open(name string) (fs.File, error) { return c.inner.Open(name) }

func (c *countFS) Create(name string) (io.WriteCloser, error) {
	c.mu.Lock()
	c.started = time.Now()
	c.mu.Unlock()
	w, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countWriter{w: w, fs: c}, nil
}

func (c *countFS) Rename(oldname, newname string) error { return c.inner.Rename(oldname, newname) }

func (c *countFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countFS) Sync(name string) error {
	err := c.inner.Sync(name)
	c.mu.Lock()
	c.syncs++
	if name == "." && !c.started.IsZero() {
		c.saves = append(c.saves, time.Since(c.started))
		c.started = time.Time{}
	}
	c.mu.Unlock()
	return err
}

// fsStats is a snapshot of the counters.
type fsStats struct {
	saves        int
	bytes, syncs int64
}

func (c *countFS) snapshot() fsStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsStats{saves: len(c.saves), bytes: c.bytes, syncs: c.syncs}
}

// savesSince returns the save durations recorded after snapshot s.
func (c *countFS) savesSince(s fsStats) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.saves[s.saves:]...)
}

// countWriter counts the bytes and fsyncs of one temp file.
type countWriter struct {
	w  io.WriteCloser
	fs *countFS
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.fs.mu.Lock()
	cw.fs.bytes += int64(n)
	cw.fs.mu.Unlock()
	return n, err
}

// Sync forwards to the file's own Sync; the store fsyncs through this
// method only when the writer has one, as an *os.File does.
func (cw *countWriter) Sync() error {
	s, ok := cw.w.(interface{ Sync() error })
	if !ok {
		return nil
	}
	cw.fs.mu.Lock()
	cw.fs.syncs++
	cw.fs.mu.Unlock()
	return s.Sync()
}

func (cw *countWriter) Close() error { return cw.w.Close() }
