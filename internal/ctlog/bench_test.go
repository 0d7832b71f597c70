package ctlog

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// mutexLog is the pre-sequencer baseline: the entry identity hash, SCT
// signature, leaf hash, and tree append all execute under one mutex, so
// concurrent submitters serialize on the whole submission. It is kept
// here (not in the production code) purely as the BenchmarkLogAdd
// reference point.
type mutexLog struct {
	signer sct.LogSigner
	clock  func() time.Time

	mu         sync.Mutex
	tree       *merkle.TiledTree
	entries    []*Entry
	dedupe     map[merkle.Hash]uint64
	byLeafHash map[merkle.Hash]uint64
}

func newMutexLog(tb testing.TB, signer sct.LogSigner, clock func() time.Time) *mutexLog {
	tree, err := merkle.NewTiled(DefaultTileSpan, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &mutexLog{
		signer:     signer,
		clock:      clock,
		tree:       tree,
		dedupe:     make(map[merkle.Hash]uint64),
		byLeafHash: make(map[merkle.Hash]uint64),
	}
}

func (l *mutexLog) addChain(cert []byte) (*sct.SignedCertificateTimestamp, error) {
	ce := sct.X509Entry(cert)
	ts := uint64(l.clock().UnixMilli())
	l.mu.Lock()
	defer l.mu.Unlock()
	idHash := entryIdentity(ce)
	if idx, ok := l.dedupe[idHash]; ok {
		e := l.entries[idx]
		return l.signer.CreateSCT(e.Timestamp, e.SignatureEntry())
	}
	e := &Entry{Index: uint64(len(l.entries)), Timestamp: ts, Type: ce.Type, Cert: ce.Cert}
	s, err := l.signer.CreateSCT(ts, ce)
	if err != nil {
		return nil, err
	}
	leafHash, err := e.LeafHash()
	if err != nil {
		return nil, err
	}
	l.tree.AppendLeafHash(leafHash)
	l.entries = append(l.entries, e)
	l.dedupe[idHash] = e.Index
	l.byLeafHash[leafHash] = e.Index
	return s, nil
}

// benchCert builds a distinct, realistically sized (1 KiB) certificate
// for submission i. A fresh slice per call matches the server shape,
// where each request decodes its chain into new buffers whose ownership
// passes to the log.
func benchCert(i uint64) []byte {
	buf := make([]byte, 1024)
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], i)
	sum := sha256.Sum256(seed[:])
	for off := 0; off < len(buf); off += len(sum) {
		copy(buf[off:], sum[:])
	}
	binary.BigEndian.PutUint64(buf, i)
	return buf
}

// BenchmarkLogAdd measures contended submission throughput: GOMAXPROCS
// goroutines flooding one log with distinct certificates.
//
//	staged:       the production stage → sequence path (hashing and SCT
//	              signing outside the lock; the final Sequence is
//	              included in the measured time)
//	single-mutex: the pre-sequencer baseline, everything under one lock
//
// The fast sub-benchmarks use the simulation FastSigner (keyed-hash
// SCTs, the timeline replay's configuration); the ecdsa ones use the
// production P-256 signer, where moving signing off the lock matters
// most. The staged/single-mutex ratio scales with GOMAXPROCS: the
// single-mutex path serializes all hashing and signing, so its ns/op is
// flat in the core count, while the staged path's hashing and signing
// parallelize and only the short dedupe+append section serializes. On
// one core the staged path is slightly slower (it pays the batch
// bookkeeping without any parallelism to exploit).
func BenchmarkLogAdd(b *testing.B) {
	signers := []struct {
		name string
		mk   func() sct.LogSigner
	}{
		{"fast", func() sct.LogSigner { return sct.NewFastSigner("bench log") }},
		{"ecdsa", func() sct.LogSigner {
			s, err := sct.NewSigner(nil)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
	}
	clock := func() time.Time { return time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC) }
	for _, sg := range signers {
		b.Run(sg.name, func(b *testing.B) {
			b.Run("staged", func(b *testing.B) {
				b.ReportAllocs()
				l, err := New(Config{Name: "bench log", Signer: sg.mk(), Clock: clock})
				if err != nil {
					b.Fatal(err)
				}
				var next atomic.Uint64
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := l.AddChain(benchCert(next.Add(1))); err != nil {
							b.Error(err)
							return
						}
					}
				})
				// Integration is part of the cost being claimed, so
				// sequence inside the measured window.
				l.Sequence()
				if l.TreeSize() != uint64(b.N) {
					b.Fatalf("tree size = %d, want %d", l.TreeSize(), b.N)
				}
			})
			b.Run("single-mutex", func(b *testing.B) {
				b.ReportAllocs()
				l := newMutexLog(b, sg.mk(), clock)
				var next atomic.Uint64
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := l.addChain(benchCert(next.Add(1))); err != nil {
							b.Error(err)
							return
						}
					}
				})
				if l.tree.Size() != uint64(b.N) {
					b.Fatalf("tree size = %d, want %d", l.tree.Size(), b.N)
				}
			})
		})
	}
}

// BenchmarkLogAddDurable measures what durability costs the contended
// submission path: GOMAXPROCS goroutines flooding one log, staged
// in-memory (the BenchmarkLogAdd baseline) versus staged+WAL in its two
// sync policies.
//
//	mem:            no store (in-memory staged path, the reference)
//	wal-sync-each:  every SCT waits for its WAL record's fsync (group
//	                commit — concurrent submitters amortize one fsync);
//	                the production posture
//	wal-sync-seal:  WAL records ride OS buffering; fsync happens at the
//	                sequencing barrier (bulk-replay posture)
//
// The measured window includes the final Sequence (and its seal fsync)
// so both sides claim fully integrated, durable-where-promised trees.
func BenchmarkLogAddDurable(b *testing.B) {
	clock := func() time.Time { return time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC) }
	modes := []struct {
		name    string
		durable bool
		sync    SyncPolicy
	}{
		{"mem", false, 0},
		{"wal-sync-each", true, SyncEachSubmission},
		{"wal-sync-seal", true, SyncAtSequence},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{
				Name:   "bench log",
				Signer: sct.NewFastSigner("bench log"),
				Clock:  clock,
				Sync:   mode.sync,
				// No mid-run snapshots: the cost under test is the WAL.
			}
			var (
				l   *Log
				err error
			)
			if mode.durable {
				l, err = Open(b.TempDir(), cfg)
			} else {
				l, err = New(cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.AddChain(benchCert(next.Add(1))); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if _, err := l.Sequence(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if l.TreeSize() != uint64(b.N) {
				b.Fatalf("tree size = %d, want %d", l.TreeSize(), b.N)
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

const (
	benchTileSpan     = 256
	benchTiledEntries = 16384 // 64 sealed tiles, empty tail
)

// newTiledBenchLog builds a durable log of benchTiledEntries 1 KiB
// certificates, all sealed into tiles of benchTileSpan, and returns it
// open together with its directory and config, for the read benchmarks
// to reopen under different page-cache budgets.
func newTiledBenchLog(b *testing.B) (*Log, string, Config) {
	clock := func() time.Time { return time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC) }
	base := Config{
		Name:     "bench log",
		Signer:   sct.NewFastSigner("bench log"),
		Clock:    clock,
		Sync:     SyncAtSequence,
		TileSpan: benchTileSpan,
	}
	dir := b.TempDir()
	l, err := Open(dir, base)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < benchTiledEntries; i++ {
		if _, err := l.AddChain(benchCert(i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		b.Fatal(err)
	}
	if got := l.TiledThrough(); got != benchTiledEntries {
		b.Fatalf("tiled through %d, want %d", got, benchTiledEntries)
	}
	return l, dir, base
}

// BenchmarkLogReadTiled measures the sealed-region read path of a
// tile-backed log: get-entries pages and inclusion proofs served from
// immutable tile files. The hot variant runs with the default page-cache
// budget, so after the first pass every hash and offsets page is
// a RAM hit and a get-entries page is one ranged read of its records
// (read + CRC + parse); the cold variant disables the cache
// (PageCacheBytes < 0, pass-through), so every operation pages its tile
// files in from the store — the spread between the two is what the LRU
// cache buys. What a cold page-in is differs by file: a hash tile is
// read, fully re-verified and its leaf keys sorted every time, and
// proof-cold pages it in once for the leaf lookup and once more for each
// of the 8 audit-path nodes below the tile level, reading no index file
// (before the lookup searched the hash page, one of those 9 reads was
// of the .idx); a leaf tile's offsets page is built from the whole file, cross-checked
// against its hash tile on its first build after Open and from then on
// read + CRC + parse, before the ranged read, so after the first lap of
// 64 tiles entries-cold measures exactly that: every page reads its leaf
// file twice, whole for the offsets page and then its own range, and
// is not comparable with runs from before offsets pages, which read it
// once. entries-first-touch reopens the log every lap to keep every
// page-in a checking one: leaf read + hash-tile read and decode + 256
// leaf hashes.
func BenchmarkLogReadTiled(b *testing.B) {
	const span, total = benchTileSpan, benchTiledEntries
	l, dir, base := newTiledBenchLog(b)
	leafHashes := make([]merkle.Hash, 0, total)
	err := l.StreamEntries(0, total-1, func(e *Entry) error {
		h, err := e.LeafHash()
		if err != nil {
			return err
		}
		leafHashes = append(leafHashes, h)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	readPage := func(b *testing.B, l *Log, start uint64) {
		page, err := l.GetEntries(start, start+span-1)
		if err != nil {
			b.Fatal(err)
		}
		if len(page) != span {
			b.Fatalf("page of %d entries", len(page))
		}
	}

	for _, mode := range []struct {
		name       string
		cacheBytes int64
	}{
		{"hot", 0},   // default budget; the whole log fits
		{"cold", -1}, // pass-through cache, every read decodes from disk
	} {
		cfg := base
		cfg.PageCacheBytes = mode.cacheBytes
		l, err := Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		size := l.TreeSize()
		b.Run("entries-"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				readPage(b, l, (uint64(i)*span)%total)
			}
		})
		b.Run("proof-"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A large odd stride visits tiles in a non-sequential
				// order without repeating until all leaves are seen.
				idx := (uint64(i) * 2654435761) % total
				if _, _, err := l.GetProofByHash(leafHashes[idx], size); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("entries-first-touch", func(b *testing.B) {
		cfg := base
		cfg.PageCacheBytes = -1
		b.ReportAllocs()
		var l *Log
		for i := 0; i < b.N; i++ {
			start := (uint64(i) * span) % total
			if start == 0 {
				// A new lap: a fresh process's view of the tiles, none of
				// them checked. Reopening is set-up, not the measurement.
				b.StopTimer()
				if l != nil {
					if err := l.Close(); err != nil {
						b.Fatal(err)
					}
				}
				var err error
				if l, err = Open(dir, cfg); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			readPage(b, l, start)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkHandlerGetEntries measures a monitor's whole request inside
// the process: a tile-aligned 256-entry get-entries page of 1 KiB
// certificates through Handler().ServeHTTP into a recorder — mux, query
// parsing, tile lookup and the wire encoding, everything but the socket.
// hot holds every offsets page in the page cache, so it is a ranged read
// of the page's records (read, CRC-check and parse) plus the encoder;
// cold adds the offsets page's build from the whole leaf file per page,
// plus the hash-tile cross-check on each tile's first build only (the
// first 64 iterations). Bytes are response body bytes.
func BenchmarkHandlerGetEntries(b *testing.B) {
	l, dir, base := newTiledBenchLog(b)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	reqs := make([]*http.Request, benchTiledEntries/benchTileSpan)
	for i := range reqs {
		start := i * benchTileSpan
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, start+benchTileSpan-1), nil)
	}
	for _, mode := range []struct {
		name       string
		cacheBytes int64
	}{
		{"hot", 0},
		{"cold", -1},
	} {
		cfg := base
		cfg.PageCacheBytes = mode.cacheBytes
		l, err := Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		h := l.Handler()
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, reqs[i%len(reqs)])
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				b.SetBytes(int64(rec.Body.Len()))
			}
		})
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandlerProofByHash measures an auditor's whole request inside
// the process: get-proof-by-hash at the head for leaves spread over all
// 64 sealed tiles, through Handler().ServeHTTP into a recorder, with the
// page cache hot — mux, query parsing, the leaf-bloom probe over every
// tile, one leaf-key search of a hash page, the audit path and the wire
// encoding.
func BenchmarkHandlerProofByHash(b *testing.B) {
	l, _, _ := newTiledBenchLog(b)
	defer l.Close()
	size := l.STH().TreeHead.TreeSize
	reqs := make([]*http.Request, 0, benchTiledEntries/61+1)
	err := l.StreamEntries(0, benchTiledEntries-1, func(e *Entry) error {
		if e.Index%61 != 0 {
			return nil
		}
		h, err := e.LeafHash()
		if err != nil {
			return err
		}
		reqs = append(reqs, httptest.NewRequest("GET", fmt.Sprintf("/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d",
			url.QueryEscape(base64.StdEncoding.EncodeToString(h[:])), size), nil))
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	h := l.Handler()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[i%len(reqs)])
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkAppendBase64 puts the get-entries kernel beside the stdlib
// encoder it replaced, on one page's worth of leaves: 256 random
// 1071-byte leaves appended into one reused buffer, as WriteGetEntries
// appends them. Bytes are input bytes. On an AVX2 CPU appendBase64 runs
// the AVX2 kernel, about ten times the stdlib's speed; -tags purego
// measures the pure-Go loops alone, about two and a half times.
func BenchmarkAppendBase64(b *testing.B) {
	const leaves, leafLen = 256, 1071
	rng := rand.New(rand.NewSource(1071))
	page := make([][]byte, leaves)
	for i := range page {
		page[i] = make([]byte, leafLen)
		rng.Read(page[i])
	}
	for _, enc := range []struct {
		name string
		fn   func(dst, src []byte) []byte
	}{
		{"stdlib", base64.StdEncoding.AppendEncode},
		{"kernel", appendBase64},
	} {
		b.Run(enc.name, func(b *testing.B) {
			buf := make([]byte, 0, leaves*base64.StdEncoding.EncodedLen(leafLen))
			b.SetBytes(leaves * leafLen)
			b.ReportAllocs()
			for b.Loop() {
				buf = buf[:0]
				for _, leaf := range page {
					buf = enc.fn(buf, leaf)
				}
			}
		})
	}
}
