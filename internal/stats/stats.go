// Package stats provides the small statistics toolkit the measurement
// pipelines share: counters keyed by string, top-k extraction, daily time
// series over a simulated timeline, and percentage helpers used to render
// the paper's tables and figures.
package stats

import (
	"sort"
	"sync"
	"time"
)

// Counter counts occurrences per key. Safe for concurrent use.
type Counter struct {
	mu sync.RWMutex
	m  map[string]uint64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{m: make(map[string]uint64)} }

// Add increments key by n.
func (c *Counter) Add(key string, n uint64) {
	c.mu.Lock()
	c.m[key] += n
	c.mu.Unlock()
}

// Inc increments key by one.
func (c *Counter) Inc(key string) { c.Add(key, 1) }

// Merge adds every count of o into c. It is the reduction step of the
// parallel pipelines: workers accumulate into private counters and merge
// them once at the end instead of contending on a shared lock per event.
func (c *Counter) Merge(o *Counter) {
	// Snapshot o before locking c: holding both mutexes at once would
	// deadlock on cross-merges (a.Merge(b) racing b.Merge(a)) or a
	// self-merge.
	c.AddMap(o.Snapshot())
}

// AddMap accumulates a plain count map into c under one lock
// acquisition.
func (c *Counter) AddMap(m map[string]uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range m {
		c.m[k] += v
	}
}

// Get returns the count for key.
func (c *Counter) Get(key string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[key]
}

// Len returns the number of distinct keys.
func (c *Counter) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// KV is a key with its count.
type KV struct {
	Key   string
	Count uint64
}

// TopK returns the k highest-count entries, ties broken alphabetically so
// output is deterministic.
func (c *Counter) TopK(k int) []KV {
	c.mu.RLock()
	all := make([]KV, 0, len(c.m))
	for key, v := range c.m {
		all = append(all, KV{key, v})
	}
	c.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Snapshot returns a copy of the underlying map.
func (c *Counter) Snapshot() map[string]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Percent returns 100*part/total, or 0 when total is 0.
func Percent(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// DaySeries accumulates per-day values keyed by series name over a
// simulated timeline. Days are UTC dates.
type DaySeries struct {
	mu sync.Mutex
	// values[series][day] = value
	values map[string]map[string]float64
	days   map[string]bool
}

// NewDaySeries returns an empty series set.
func NewDaySeries() *DaySeries {
	return &DaySeries{
		values: make(map[string]map[string]float64),
		days:   make(map[string]bool),
	}
}

// DayKey formats t as its UTC date.
func DayKey(t time.Time) string { return t.UTC().Format("2006-01-02") }

// AddKey accumulates v into (series, day), the day formatted by DayKey.
// Callers that observe many events on the same day memoize that
// formatting (the traffic monitor adds up to four series values per
// connection; formatting the same date four times per event dominated
// its allocation profile).
func (s *DaySeries) AddKey(series, day string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.values[series]
	if m == nil {
		m = make(map[string]float64)
		s.values[series] = m
	}
	m[day] += v
	s.days[day] = true
}

// Days returns all days seen, sorted.
func (s *DaySeries) Days() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.days))
	for d := range s.days {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Value returns the accumulated value for (series, day).
func (s *DaySeries) Value(series, day string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.values[series][day]
}

// Table returns sorted days, sorted series names, and a deep copy of the
// full (series, day) value table under one lock acquisition — the bulk
// accessor behind the Figure 1 aggregations, which previously took the
// mutex O(series×days) times.
func (s *DaySeries) Table() (days, names []string, values map[string]map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	days = make([]string, 0, len(s.days))
	for d := range s.days {
		days = append(days, d)
	}
	sort.Strings(days)
	names = make([]string, 0, len(s.values))
	values = make(map[string]map[string]float64, len(s.values))
	for name, row := range s.values {
		names = append(names, name)
		cp := make(map[string]float64, len(row))
		for d, v := range row {
			cp[d] = v
		}
		values[name] = cp
	}
	sort.Strings(names)
	return days, names, values
}

// MergeTable accumulates a plain (series, day) value table into s under
// one lock acquisition — the bulk form of AddKey that parallel workers
// use to fold lock-free private aggregates into a shared series.
func (s *DaySeries) MergeTable(values map[string]map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, row := range values {
		m := s.values[name]
		if m == nil {
			m = make(map[string]float64, len(row))
			s.values[name] = m
		}
		for d, v := range row {
			m[d] += v
			s.days[d] = true
		}
	}
}
