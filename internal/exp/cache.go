package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"gonoc/internal/core"
)

// Source is the read side of a content-addressed result store: Lookup
// resolves a scenario cache key (core.Scenario.CacheKey) to a
// previously measured result. Implementations must be safe for
// concurrent Lookup — the runner consults the source from every worker.
type Source interface {
	Lookup(key string) (core.Result, bool)
}

// Cache is a result store: a Source that also records fresh results.
// The runner calls Store from its single ordered-emission goroutine,
// concurrently with worker Lookups.
type Cache interface {
	Source
	Store(key string, r core.Result) error
}

// MemCache is an in-memory Cache with hit/miss accounting. The zero
// value is not ready; use NewMemCache.
type MemCache struct {
	mu     sync.RWMutex
	m      map[string]core.Result
	hits   int
	misses int
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache { return &MemCache{m: make(map[string]core.Result)} }

// Lookup implements Source.
func (c *MemCache) Lookup(key string) (core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

// Store implements Cache.
func (c *MemCache) Store(key string, r core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
	return nil
}

// Len returns the number of cached results.
func (c *MemCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Hits returns the number of successful Lookups so far.
func (c *MemCache) Hits() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits
}

// Misses returns the number of failed Lookups so far.
func (c *MemCache) Misses() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.misses
}

// cacheFile is the JSONL store inside a FileCache directory.
const cacheFile = "results.jsonl"

// FileCache is a Cache persisted as one JSONL file in a directory: one
// {"key": ..., "result": ...} object per line, appended (and flushed)
// as each result arrives — one line-sized write per simulation, so an
// interrupt at any point loses nothing already measured. The file is
// append-only during a campaign; Compact rewrites it without the
// superseded lines. Opening the cache replays the file, so an
// interrupted campaign resumes from whatever completed — a torn final
// line (from a killed process) is skipped, not fatal. The on-disk order
// is the runner's emission order, hence deterministic for a given
// campaign.
type FileCache struct {
	mem  *MemCache
	f    *os.File
	path string
}

// cacheEntry is the JSONL wire form of one cached result. Absent
// statistics are null (core.Result.MarshalJSON); lines written with
// zeros and a "nans" list in their place decode to the same Result
// (core.Result.UnmarshalJSON).
type cacheEntry struct {
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// OpenFileCache opens (creating if needed) the JSONL result cache in
// dir. The caller must Close it to flush buffered appends.
func OpenFileCache(dir string) (*FileCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: cache dir: %w", err)
	}
	path := filepath.Join(dir, cacheFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: cache file: %w", err)
	}
	c := &FileCache{mem: NewMemCache(), f: f, path: path}
	_, torn, err := c.scan(func(e cacheEntry, _ []byte) { _ = c.mem.Store(e.Key, e.Result) })
	if err == nil && torn {
		// End the torn line, so the next append starts a line of its
		// own instead of being glued onto the torn bytes and skipped
		// with them on the next open.
		_, err = f.Write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: reading cache: %w", err)
	}
	return c, nil
}

// scan reads the store from its start and calls fn with each line that
// decodes to an entry; torn or foreign lines are skipped. It returns
// the number of lines and whether the last one lacks its newline (a
// writer killed mid-append).
func (c *FileCache) scan(fn func(e cacheEntry, line []byte)) (lines int, torn bool, err error) {
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return 0, false, err
	}
	data, err := io.ReadAll(c.f)
	if err != nil {
		return 0, false, err
	}
	for line := range bytes.Lines(data) {
		lines++
		var e cacheEntry
		if json.Unmarshal(line, &e) == nil && e.Key != "" {
			fn(e, bytes.TrimSuffix(line, []byte{'\n'}))
		}
	}
	return lines, len(data) > 0 && data[len(data)-1] != '\n', nil
}

// Lookup implements Source.
func (c *FileCache) Lookup(key string) (core.Result, bool) { return c.mem.Lookup(key) }

// Store implements Cache, appending the entry to the JSONL file. A key
// already present (e.g. loaded at open) is refreshed in memory but not
// re-appended.
func (c *FileCache) Store(key string, r core.Result) error {
	c.mem.mu.Lock()
	_, dup := c.mem.m[key]
	c.mem.m[key] = r
	c.mem.mu.Unlock()
	if dup {
		return nil
	}
	b, err := json.Marshal(cacheEntry{Key: key, Result: r})
	if err != nil {
		return fmt.Errorf("exp: encoding cache entry: %w", err)
	}
	b = append(b, '\n')
	if _, err := c.f.Write(b); err != nil {
		return fmt.Errorf("exp: appending cache entry: %w", err)
	}
	return nil
}

// Compact rewrites the JSONL store without its dead weight: torn or
// foreign lines, and superseded duplicates of a key (the last
// occurrence wins, matching what Open loads), which accumulate when
// several shard processes append to a shared cache directory. Entries
// keep their first-appearance order, so compacting a healthy file is
// byte-stable. The rewrite goes through a temp file and an atomic
// rename; a crash mid-compaction leaves the original intact. It
// returns the number of lines dropped.
//
// Compact requires a quiesced cache: it must not run while another
// process is appending to the same directory — a writer holding the
// old inode would lose every line appended after the scan (its handle
// survives the rename but the file it feeds is unlinked). Run it
// between campaigns, as `nocsweep -cache-compact` does.
func (c *FileCache) Compact() (dropped int, err error) {
	// Latest raw line per key, in first-appearance order.
	latest := make(map[string][]byte)
	var order []string
	lines, _, err := c.scan(func(e cacheEntry, line []byte) {
		if _, ok := latest[e.Key]; !ok {
			order = append(order, e.Key)
		}
		latest[e.Key] = line
	})
	if err != nil {
		return 0, fmt.Errorf("exp: compact scan: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(c.path), cacheFile+".compact-*")
	if err != nil {
		return 0, fmt.Errorf("exp: compact temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	// CreateTemp uses 0600; restore the store's usual mode so other
	// users of a shared cache directory can still open it.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("exp: compact chmod: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, key := range order {
		w.Write(latest[key])
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("exp: compact write: %w", err)
	}
	// Make the rewrite durable before it replaces the original: a crash
	// after an unsynced rename can leave an empty or partial store.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("exp: compact sync: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("exp: compact rename: %w", err)
	}
	// The temp handle now refers to the file living at c.path (the fd
	// follows the inode across the rename) with its offset at the end,
	// so adopt it as the append handle directly: there is no window in
	// which a failed reopen could leave c.f on the unlinked old inode.
	// Prefer a fresh O_APPEND descriptor when available — shared-cache
	// writers from concurrent shard processes rely on append atomicity —
	// but fall back to the temp handle rather than fail.
	c.f.Close()
	if f, err := os.OpenFile(c.path, os.O_RDWR|os.O_APPEND, 0o644); err == nil {
		tmp.Close()
		c.f = f
	} else {
		c.f = tmp
	}
	return lines - len(order), nil
}

// Len returns the number of cached results.
func (c *FileCache) Len() int { return c.mem.Len() }

// Hits returns the number of successful Lookups so far.
func (c *FileCache) Hits() int { return c.mem.Hits() }

// Misses returns the number of failed Lookups so far.
func (c *FileCache) Misses() int { return c.mem.Misses() }

// Close closes the backing file. Entries are durable as soon as Store
// returns; Close only releases the descriptor.
func (c *FileCache) Close() error {
	return c.f.Close()
}

// ReportClose writes the cache's hit/miss counts to w and closes it —
// the shared teardown of every command's -cache flag.
func (c *FileCache) ReportClose(w io.Writer) error {
	fmt.Fprintf(w, "# cache: %d hits, %d misses\n", c.Hits(), c.Misses())
	return c.Close()
}
