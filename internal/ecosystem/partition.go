package ecosystem

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ctrise/internal/stats"
)

// This file is the deterministic fan-out layer, the only one the
// experiment pipelines use: the Figure 2 traffic replay, the issuance
// timeline, the log harvest, the Section 3.3 scan, the Table 2 census
// and the Section 4.3 funnel. It separates three concerns so that output
// is identical at any worker count and under any scheduling:
//
//   - Partitioning: work is split into contiguous index ranges whose
//     boundaries depend only on the input size, never on the worker
//     count (Ranges).
//   - Randomness: every chunk derives a private RNG from the base seed
//     and the chunk's identity via seed-splitting (DeriveSeed), so a
//     chunk's draws are the same no matter which worker runs it or when.
//   - Ordering: results that must be observed in input order are merged
//     back on the calling goroutine in strict chunk order
//     (ForEachOrdered); purely additive results use ForEach and
//     order-independent merges.

// Range is a half-open [Lo, Hi) index interval of one work chunk.
type Range struct {
	Lo, Hi int
}

// Ranges splits [0, n) into contiguous chunks of at most chunk indices.
// The split depends only on n and chunk, never on the worker count.
func Ranges(n, chunk int) []Range {
	if n <= 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = n
	}
	out := make([]Range, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, Range{lo, hi})
	}
	return out
}

// Workers resolves a Parallelism knob against a task count: 0 (or
// negative) means GOMAXPROCS, and the result never exceeds tasks nor
// falls below 1.
func Workers(parallelism, tasks int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > tasks {
		parallelism = tasks
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// DeriveSeed derives an independent RNG seed from a base seed and the
// identity of a work unit (day index, site index, chunk number, a salted
// string hash, ...). It chains the splitmix64 finalizer over the salts,
// so seeds for neighbouring units are statistically independent — unlike
// xor-folding, which makes seed i and seed i+1 differ in one bit.
func DeriveSeed(base int64, salts ...uint64) int64 {
	x := uint64(base)
	for _, s := range salts {
		x = stats.Mix64(x + 0x9e3779b97f4a7c15 + s)
	}
	return int64(x)
}

// splitMixSource is a splitmix64 rand.Source64. Its state is one word
// and seeding is O(1) — unlike math/rand's lagged-Fibonacci source,
// whose 607-word seed initialization dominates any pipeline that
// derives a fresh RNG per work unit (per issuance, per site, per day).
type splitMixSource struct{ x uint64 }

func (s *splitMixSource) Seed(seed int64) { s.x = uint64(seed) }

func (s *splitMixSource) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	return stats.Mix64(s.x)
}

func (s *splitMixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewRand returns a rand.Rand over an O(1)-seeded splitmix64 source —
// the RNG constructor for seed-split work units.
func NewRand(seed int64) *rand.Rand {
	return rand.New(&splitMixSource{x: uint64(seed)})
}

// SaltString hashes a string into a DeriveSeed salt (64-bit FNV-1a,
// the pipelines' shared string hash).
func SaltString(s string) uint64 { return stats.Hash64(s) }

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines. Completion order is unspecified; use it for work whose
// results are additive or written to disjoint slots. workers <= 1 (after
// clamping against n) runs inline on the calling goroutine.
func ForEach(n, workers int, fn func(i int)) {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachOrdered produces n chunk results with gen running on up to
// workers goroutines and consumes them on the calling goroutine in
// strict chunk order — the ordered-merge primitive behind the parallel
// traffic replay. gen(i) may run in any order and concurrently with
// other chunks; consume(i, v) always sees i = 0, 1, 2, ... and never
// runs concurrently with itself, so consumers need no locking. With one
// worker both callbacks run inline on the calling goroutine.
func ForEachOrdered[T any](n, workers int, gen func(i int) T, consume func(i int, v T)) {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			consume(i, gen(i))
		}
		return
	}
	type result struct {
		idx int
		v   T
	}
	// Credits bound the run-ahead: a worker takes one before generating a
	// chunk and the consumer returns it after the chunk is consumed, so
	// at most 2×workers chunks are in flight. Without the bound, workers
	// outrun a slower consumer arbitrarily far and every chunk needs its
	// own live buffer — with it, chunk buffers recycle through a small
	// working set.
	credits := 2 * workers
	sem := make(chan struct{}, credits)
	for i := 0; i < credits; i++ {
		sem <- struct{}{}
	}
	ch := make(chan result, workers)
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				<-sem
				i := int(cursor.Add(1)) - 1
				if i >= n {
					// The consumer releases n credits in total, enough
					// for every blocked worker to wake and exit.
					return
				}
				ch <- result{i, gen(i)}
			}
		}()
	}
	pending := make(map[int]T, credits)
	for next := 0; next < n; {
		r := <-ch
		pending[r.idx] = r.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			consume(next, v)
			next++
			sem <- struct{}{}
		}
	}
}

// FirstError records the error of the lowest-indexed work unit that
// failed, so parallel pipelines report the same error a sequential left-
// to-right run would have hit first — error output is deterministic too.
type FirstError struct {
	mu  sync.Mutex
	idx int
	err error
}

// Record notes err for work-unit index i (nil errs are ignored).
func (f *FirstError) Record(i int, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil || i < f.idx {
		f.idx, f.err = i, err
	}
	f.mu.Unlock()
}

// Err returns the recorded error, if any.
func (f *FirstError) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
