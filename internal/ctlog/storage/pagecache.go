package storage

import (
	"container/list"
	"sync"
)

// PageKey identifies one cacheable tile page: the tile number plus a
// caller-chosen kind (the ctlog layer caches a decoded hash file with
// its leaf keys, an index file's identity rows, or a leaf file's record
// offsets, as one page).
type PageKey struct {
	Kind uint8
	Tile uint64
}

// PageCacheStats is a point-in-time snapshot of cache behaviour.
type PageCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Pages     int
	Used      int64
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s PageCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// PageCache is a byte-budget LRU over immutable tile pages. Values are
// opaque; the caller supplies each page's loader and byte charge (what
// the page pins in RAM: the ctlog layer charges a hash page its file
// bytes plus its leaf keys, an index page its identity rows and an
// offsets page its offsets).
// A page larger than the whole budget is served but never retained, so a
// zero (or tiny) budget degrades to a pass-through cache — every read
// goes to disk — rather than breaking reads.
//
// Concurrent misses on the same key may both run the loader; the first
// insert wins and the loser's value is returned to its caller but not
// retained. Pages are immutable, so duplicate loads are a waste, never a
// correctness problem — cheaper than holding the cache lock across IO.
type PageCache struct {
	budget int64

	mu        sync.Mutex
	used      int64
	lru       *list.List // of *cachePage, most recent at front
	pages     map[PageKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cachePage struct {
	key  PageKey
	val  any
	size int64
}

// NewPageCache returns a cache that retains at most budget bytes of
// pages (by the loader-reported sizes).
func NewPageCache(budget int64) *PageCache {
	return &PageCache{
		budget: budget,
		lru:    list.New(),
		pages:  make(map[PageKey]*list.Element),
	}
}

// Get returns the cached page for key, running load on a miss. load's
// second return is the page's byte charge.
func (c *PageCache) Get(key PageKey, load func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.pages[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		val := el.Value.(*cachePage).val
		c.mu.Unlock()
		return val, nil
	}
	c.misses++
	c.mu.Unlock()

	val, size, err := load()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[key]; ok {
		// A concurrent miss inserted first; its page is the canonical one.
		c.lru.MoveToFront(el)
		return el.Value.(*cachePage).val, nil
	}
	if size > c.budget {
		return val, nil
	}
	el := c.lru.PushFront(&cachePage{key: key, val: val, size: size})
	c.pages[key] = el
	c.used += size
	for c.used > c.budget {
		back := c.lru.Back()
		page := back.Value.(*cachePage)
		c.lru.Remove(back)
		delete(c.pages, page.key)
		c.used -= page.size
		c.evictions++
	}
	return val, nil
}

// Stats returns current counters.
func (c *PageCache) Stats() PageCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PageCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Pages:     c.lru.Len(),
		Used:      c.used,
	}
}
