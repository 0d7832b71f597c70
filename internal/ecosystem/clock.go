// Package ecosystem builds the synthetic CT world the experiments run in:
// the named logs of Table 1, the dominant CAs of Figure 1 with
// paper-calibrated issuance-rate models and log-selection policies, the
// subdomain-label model behind Table 2, a registrable-domain population,
// and the virtual clock that replays the 2015–2018 timeline
// deterministically.
//
// The harvest side of the package is a concurrent pipeline: HarvestLogs
// chunks every log's published entries into ranges, streams them
// lock-free via ctlog.Log.StreamEntries across Config.Parallelism
// workers (GOMAXPROCS by default), dedupes FQDNs in a sharded set, and
// merges one private partial aggregate per range in range order —
// harvest output is identical at any parallelism setting.
//
// The generation side fans out the same way on the deterministic
// fan-out layer in partition.go (index-range chunking, splitmix64
// seed-splitting, ordered merges): RunTimeline pipelines timeline days
// — day d+1 is planned and constructed on a lookahead goroutine while
// day d's submissions stage into the logs from all workers at once —
// and closes each day with one deterministic sequence+publish step per
// log, whose canonical batch order keeps log trees byte-identical at
// any worker count. At Parallelism 1 the same stages run in turn on the
// calling goroutine. The layer is shared by the tlsmon traffic replay
// and the scanner sweep.
package ecosystem

import (
	"sync"
	"time"
)

// Clock is a virtual clock shared by logs, CAs, monitors, and honeypots.
// Experiments advance it explicitly; nothing in the simulation reads the
// wall clock, which keeps every run reproducible.
type Clock struct {
	mu  sync.RWMutex
	now time.Time
}

// NewClock starts a clock at t.
func NewClock(t time.Time) *Clock {
	return &Clock{now: t.UTC()}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Set jumps the clock to t (used when replaying sparse timelines).
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	c.now = t.UTC()
	c.mu.Unlock()
}

// Date is shorthand for a UTC midnight.
func Date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}
