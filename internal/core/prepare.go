package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/ecc"
	"repro/internal/mark"
	"repro/internal/relation"
)

// preparedRecord is the schema-independent verification state derived
// from a certificate: parsed expected bits, the reconstructed value
// domain, and the channel options with both keys derived from the secret.
// Deriving it is the per-verify fixed cost — domain reconstruction is
// O(|domain|) map building, key derivation hashes the secret — so
// repeated verifies against the same certificate share one preparedRecord
// through a ScannerCache. It is immutable and safe for concurrent use;
// per-suspect scanners are instantiated from it cheaply.
type preparedRecord struct {
	want ecc.Bits
	opts mark.Options
}

func prepareRecord(rec *Record) (*preparedRecord, error) {
	want, err := ecc.ParseBits(rec.WM)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt record: %w", err)
	}
	dom, err := relation.NewDomain(rec.Domain)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt record: %w", err)
	}
	s := Spec{Secret: rec.Secret}
	k1, k2 := s.keys()
	return &preparedRecord{
		want: want,
		opts: mark.Options{
			KeyAttr:           rec.KeyAttr,
			Attr:              rec.Attribute,
			K1:                k1,
			K2:                k2,
			E:                 rec.E,
			Domain:            dom,
			BandwidthOverride: rec.Bandwidth,
		},
	}, nil
}

// streamScanner instantiates a detection scanner for one suspect schema.
func (p *preparedRecord) streamScanner(schema *relation.Schema) (*mark.Scanner, error) {
	return mark.NewStreamScanner(schema, len(p.want), p.opts)
}

// fingerprint keys the scanner cache: a digest over every field that
// feeds the prepared state (secret, attributes, expected bits, e,
// bandwidth, domain). The frequency profile is deliberately excluded —
// remap recovery reads it straight off the record, never from the
// prepared state — so certificates differing only in profile share an
// entry.
//
// The digest is recomputed per lookup, so a cache hit still costs one
// hash pass over the domain strings. That is deliberate: Record is a
// plain value callers copy and mutate (tests and benchmarks derive
// sibling certificates via `other := *rec`), so memoizing the
// fingerprint inside the struct would silently go stale; and keying by
// store ID would couple core to the server's storage identity. The hit
// still skips the expensive part — ParseBits, key derivation and the
// O(|domain|) map build with its per-value allocations — which costs an
// order of magnitude more than hashing the same bytes.
func (rec *Record) fingerprint() string {
	h := sha256.New()
	var n [8]byte
	ws := func(s string) {
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	ws(rec.Secret)
	ws(rec.Attribute)
	ws(rec.KeyAttr)
	ws(rec.WM)
	binary.BigEndian.PutUint64(n[:], rec.E)
	h.Write(n[:])
	binary.BigEndian.PutUint64(n[:], uint64(rec.Bandwidth))
	h.Write(n[:])
	for _, v := range rec.Domain {
		ws(v)
	}
	return string(h.Sum(nil))
}

// DefaultScannerCacheEntries is the entry bound NewScannerCache applies
// when given a non-positive size.
const DefaultScannerCacheEntries = 256

// ScannerCache memoizes prepared certificate state across verifies, so a
// service verifying many suspects against the same registered catalog
// re-derives keys and domains once per certificate instead of once per
// request. Entries evict least-recently-used. Safe for concurrent use.
type ScannerCache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List // of *cacheSlot, front = most recently used
	entries map[string]*list.Element
	hits    uint64
	misses  uint64
}

type cacheSlot struct {
	key  string
	prep *preparedRecord
}

// NewScannerCache returns a cache bounded to maxEntries prepared records
// (DefaultScannerCacheEntries when maxEntries <= 0).
func NewScannerCache(maxEntries int) *ScannerCache {
	if maxEntries <= 0 {
		maxEntries = DefaultScannerCacheEntries
	}
	return &ScannerCache{
		max:     maxEntries,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// prepared returns the cached state for rec, deriving and inserting it
// on miss. Derivation happens outside the lock; when two goroutines race
// on the same certificate the first insert wins and both share its state.
func (c *ScannerCache) prepared(rec *Record) (*preparedRecord, error) {
	key := rec.fingerprint()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		p := el.Value.(*cacheSlot).prep
		c.mu.Unlock()
		return p, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := prepareRecord(rec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheSlot).prep, nil
	}
	c.entries[key] = c.lru.PushFront(&cacheSlot{key: key, prep: p})
	if c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheSlot).key)
	}
	return p, nil
}

// CacheStats is a point-in-time view of a ScannerCache.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Stats reports current occupancy and lifetime hit/miss counts.
func (c *ScannerCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.lru.Len(), Hits: c.hits, Misses: c.misses}
}

// prepared resolves a record's verification state through an optional
// cache; a nil cache derives it fresh.
func prepared(rec *Record, cache *ScannerCache) (*preparedRecord, error) {
	if cache == nil {
		return prepareRecord(rec)
	}
	return cache.prepared(rec)
}
