// Package cache provides the fold service's content-addressed result
// cache: a bounded, byte-size-capped LRU from fold keys (see
// job.Spec.FoldKey) to encoded result snapshots. Folding is a pure
// function of the circuit's structure and the engine options, so a
// snapshot stored under a structural key serves every later
// submission with the same structure — generator or uploaded netlist
// alike — without touching an engine. The cache stores opaque bytes
// (the fold service's final snapshot: a header line and the
// core.EncodeResult bytes) rather than decoded results: entries cost
// exactly their serialized size, and a hit hands out the stored slice
// itself, never copied, which every job served from it shares
// read-only and decodes on demand into a private Result.
package cache

import (
	"container/list"
	"hash/crc32"
	"sync"

	"circuitfold/internal/obs"
)

// Default capacity bounds: enough for a benchmark sweep's worth of
// distinct specs while keeping the worst case (every entry near the
// size cap) well under typical daemon memory.
const (
	DefaultMaxEntries = 512
	DefaultMaxBytes   = 256 << 20 // 256 MiB of encoded snapshots
)

// Cache is a thread-safe LRU over immutable byte snapshots, bounded
// both by entry count and by total byte size. The zero value is not
// usable; call New. All methods are nil-safe no-ops (Get always
// misses), so callers can disable caching by threading a nil *Cache.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element

	hits, misses, evictions, corrupt int64

	// Optional metric mirrors (nil-safe obs handles).
	mEntries   *obs.Gauge   // obs.MCacheEntries
	mBytes     *obs.Gauge   // obs.MCacheBytes
	mEvictions *obs.Counter // obs.MCacheEvictions
	mCorrupt   *obs.Counter // obs.MStoreCorrupt
}

// entry is one LRU element. sum is the CRC32-IEEE of val taken at Put
// time; Get re-verifies it so a snapshot corrupted in memory (or by a
// caller violating the read-only contract) is dropped and re-folded
// instead of being decoded into a client response.
type entry struct {
	key string
	val []byte
	sum uint32
}

// New returns a cache bounded to maxEntries entries and maxBytes total
// value bytes; non-positive bounds select the defaults.
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Observe mirrors the cache's occupancy on the given gauges, its
// eviction count on the evictions counter, and checksum-failed entries
// on the corrupt counter (any of which may be nil). Call before use;
// the mirrors update on every Put, eviction, and corrupt drop.
func (c *Cache) Observe(entries, bytes *obs.Gauge, evictions, corrupt *obs.Counter) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.mEntries, c.mBytes, c.mEvictions, c.mCorrupt = entries, bytes, evictions, corrupt
	c.mu.Unlock()
}

// Get returns the snapshot stored under key and marks it most recently
// used. The returned bytes are shared with the cache and must be
// treated as read-only. An entry whose checksum no longer matches is
// dropped and reported as a miss, so the caller re-folds instead of
// decoding corrupt bytes.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if crc32.ChecksumIEEE(e.val) != e.sum {
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
		c.corrupt++
		c.misses++
		c.mCorrupt.Add(1)
		c.note()
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put stores val under key (replacing any previous value) and evicts
// least-recently-used entries until both bounds hold again. A value
// larger than the byte cap is not stored at all. The cache keeps the
// slice it is given; the caller must not mutate it afterwards.
func (c *Cache) Put(key string, val []byte) {
	if c == nil || int64(len(val)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := crc32.ChecksumIEEE(val)
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val, e.sum = val, sum
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, sum: sum})
		c.bytes += int64(len(val))
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		c.evictOldest()
	}
	c.note()
}

// evictOldest drops the least recently used entry. Called with the
// lock held.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.val))
	c.evictions++
	c.mEvictions.Add(1)
}

// note refreshes the occupancy gauges. Called with the lock held.
func (c *Cache) note() {
	c.mEntries.Set(int64(c.ll.Len()))
	c.mBytes.Set(c.bytes)
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total resident value bytes.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits, Misses, Evictions, Corrupt int64
	Entries                          int
	Bytes                            int64
}

// Stats returns the cache's cumulative counters and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Corrupt: c.corrupt,
		Entries: c.ll.Len(), Bytes: c.bytes,
	}
}
