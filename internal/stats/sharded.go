package stats

import "sync"

// Shards is the default shard count of StringSet: enough to make
// cross-core contention unlikely at typical worker counts.
const Shards = 16

// Hash64 is the 64-bit FNV-1a hash, inlined so hashing costs one pass
// over the key and no allocation. It is the shared string hash of the
// concurrent pipelines: shard selection here and seed-salting in the
// fan-out layer (ecosystem.SaltString) both use it.
func Hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Mix64 is the splitmix64 finalizer: a cheap 64-bit bijection with full
// avalanche. It is the shared integer mixer of the deterministic
// pipelines — seed-splitting in the fan-out layer (ecosystem.DeriveSeed,
// ecosystem.NewRand's source) and the submission frontend's backend
// ranking (ctfront) both chain it, adding splitmix64's golden-ratio
// increment (0x9e3779b97f4a7c15) per step the way the generator does.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Shard maps key onto [0, n) by FNV-1a. Length- or pointer-based schemes
// collapse same-shaped keys onto one shard (equal-length labels all land
// together); FNV-1a spreads them uniformly.
func Shard(key string, n int) int {
	return int(Hash64(key) % uint64(n))
}

// StringSet is a deduplicating string set split over independently locked
// shards selected by FNV-1a — the FQDN-dedup structure the parallel
// harvest workers share. Membership of a name is decided by one shard's
// lock, so workers inserting different names proceed without contention.
type StringSet struct {
	shards []stringSetShard
}

type stringSetShard struct {
	mu sync.Mutex
	m  map[string]struct{}
}

// NewStringSet returns a set with n shards (Shards if n <= 0).
func NewStringSet(n int) *StringSet {
	if n <= 0 {
		n = Shards
	}
	s := &StringSet{shards: make([]stringSetShard, n)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]struct{})
	}
	return s
}

// Add inserts key, reporting whether it was new.
func (s *StringSet) Add(key string) bool {
	sh := &s.shards[Shard(key, len(s.shards))]
	sh.mu.Lock()
	_, dup := sh.m[key]
	if !dup {
		sh.m[key] = struct{}{}
	}
	sh.mu.Unlock()
	return !dup
}

// Len returns the number of distinct keys.
func (s *StringSet) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// NumShards returns the shard count, for callers that fan work out one
// shard at a time (each key lives in exactly one shard).
func (s *StringSet) NumShards() int { return len(s.shards) }

// ForEachShard calls fn for every key in shard i, holding that shard's
// lock for the duration. It is the zero-copy handoff used by the census:
// a worker consumes whole shards in place instead of materializing the
// set into an intermediate map or slice. fn must not call back into the
// same shard.
func (s *StringSet) ForEachShard(i int, fn func(key string)) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k := range sh.m {
		fn(k)
	}
}

// ForEach calls fn for every key in the set, shard by shard.
func (s *StringSet) ForEach(fn func(key string)) {
	for i := range s.shards {
		s.ForEachShard(i, fn)
	}
}
