package ctlog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// This file pins the lock-free proof serving path (proofs.go) against a
// deliberately independent reference implementation: a textbook O(n)
// recursion straight out of RFC 6962 sections 2.1.1/2.1.2, recomputed
// from the raw leaf bytes the log serves, with its own hashing — no
// shared code with internal/merkle beyond the Hash type at the compare
// boundary. If the production path (frozen PrefixView over level caches,
// NodeSource tile reads, sync.Map hash index) drifts from the RFC in any
// state — mid-integration, mid-seal, after reopen — the differential
// suite catches the byte difference.

// oLeafHash is SHA-256(0x00 || leaf), the RFC 6962 leaf hash.
func oLeafHash(leaf []byte) merkle.Hash {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(leaf)
	var out merkle.Hash
	h.Sum(out[:0])
	return out
}

// oNodeHash is SHA-256(0x01 || left || right), the RFC 6962 node hash.
func oNodeHash(l, r merkle.Hash) merkle.Hash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var out merkle.Hash
	h.Sum(out[:0])
	return out
}

// oSplit is k: the largest power of two strictly less than n (n ≥ 2).
func oSplit(n uint64) uint64 {
	k := uint64(1)
	for k*2 < n {
		k *= 2
	}
	return k
}

// oMTH computes MTH(D) by direct recursion.
func oMTH(leaves [][]byte) merkle.Hash {
	switch n := uint64(len(leaves)); n {
	case 0:
		return merkle.Hash(sha256.Sum256(nil))
	case 1:
		return oLeafHash(leaves[0])
	default:
		k := oSplit(n)
		return oNodeHash(oMTH(leaves[:k]), oMTH(leaves[k:]))
	}
}

// oPath computes PATH(m, D) — the inclusion audit path for leaf m.
func oPath(m uint64, leaves [][]byte) []merkle.Hash {
	n := uint64(len(leaves))
	if n == 1 {
		return nil
	}
	k := oSplit(n)
	if m < k {
		return append(oPath(m, leaves[:k]), oMTH(leaves[k:]))
	}
	return append(oPath(m-k, leaves[k:]), oMTH(leaves[:k]))
}

// oSubproof computes SUBPROOF(m, D, b) — the consistency proof core.
func oSubproof(m uint64, leaves [][]byte, b bool) []merkle.Hash {
	n := uint64(len(leaves))
	if m == n {
		if b {
			return nil
		}
		return []merkle.Hash{oMTH(leaves)}
	}
	k := oSplit(n)
	if m <= k {
		return append(oSubproof(m, leaves[:k], b), oMTH(leaves[k:]))
	}
	return append(oSubproof(m-k, leaves[k:], false), oMTH(leaves[:k]))
}

// proofOracle holds the raw leaf bytes of a log's published prefix and
// answers root/proof queries by direct RFC recursion.
type proofOracle struct {
	leaves     [][]byte
	leafHashes []merkle.Hash
}

func (o *proofOracle) size() uint64 { return uint64(len(o.leaves)) }

func (o *proofOracle) root(n uint64) merkle.Hash { return oMTH(o.leaves[:n]) }

func (o *proofOracle) inclusion(i, n uint64) []merkle.Hash { return oPath(i, o.leaves[:n]) }

func (o *proofOracle) consistency(m, n uint64) []merkle.Hash {
	if m == n {
		return nil
	}
	return oSubproof(m, o.leaves[:n], true)
}

// indexOf resolves a leaf hash by linear scan — the slow, obviously
// correct counterpart of the leafIndex map + tile bloom path.
func (o *proofOracle) indexOf(h merkle.Hash) (uint64, bool) {
	for i, lh := range o.leafHashes {
		if lh == h {
			return uint64(i), true
		}
	}
	return 0, false
}

// oracleFromLog rebuilds the oracle from what the log actually serves:
// the raw MerkleTreeLeaf bytes of the published prefix, streamed over
// the lock-free read path. size 0 (nothing published beyond the empty
// STH) yields an empty oracle.
func oracleFromLog(t testing.TB, l *Log, size uint64) *proofOracle {
	t.Helper()
	o := &proofOracle{}
	if size == 0 {
		return o
	}
	err := l.StreamEntries(0, size-1, func(e *Entry) error {
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			return err
		}
		o.leaves = append(o.leaves, leaf)
		o.leafHashes = append(o.leafHashes, oLeafHash(leaf))
		return nil
	})
	if err != nil {
		t.Fatalf("streaming entries for the oracle: %v", err)
	}
	if got := uint64(len(o.leaves)); got != size {
		t.Fatalf("oracle streamed %d leaves, want %d", got, size)
	}
	return o
}

func sameHashes(a, b []merkle.Hash) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkProofsAgainstOracle compares every proof endpoint with the oracle
// at the log's published size, split across par goroutines issuing
// requests concurrently (all against the same snapshot — the lock-free
// path must tolerate any read parallelism). rng only picks the sample;
// every pick is compared exhaustively.
func checkProofsAgainstOracle(t testing.TB, l *Log, o *proofOracle, par int, rng *rand.Rand) {
	t.Helper()
	size := l.STH().TreeHead.TreeSize
	if size != o.size() {
		t.Fatalf("published size %d, oracle holds %d", size, o.size())
	}
	if root := merkle.Hash(l.STH().TreeHead.RootHash); root != o.root(size) {
		t.Fatalf("published root differs from oracle MTH at size %d", size)
	}
	if size == 0 {
		return
	}

	type query struct {
		kind int
		a, b uint64
	} // kind 0=incl 1=cons 2=byhash
	var queries []query
	sampleSize := func() uint64 { return 1 + uint64(rng.Int63n(int64(size))) }
	for i := 0; i < 12; i++ {
		n := sampleSize()
		queries = append(queries, query{0, uint64(rng.Int63n(int64(n))), n})
	}
	// Always cover the full tree and its edges.
	queries = append(queries, query{0, 0, size}, query{0, size - 1, size})
	for i := 0; i < 12; i++ {
		n := sampleSize()
		queries = append(queries, query{1, 1 + uint64(rng.Int63n(int64(n))), n})
	}
	queries = append(queries, query{1, size, size}, query{1, 1, size})
	for i := 0; i < 10; i++ {
		queries = append(queries, query{2, uint64(rng.Int63n(int64(size))), size})
	}

	runOne := func(q query) error {
		switch q.kind {
		case 0:
			got, err := l.pub.Load().tree.InclusionProof(q.a, q.b)
			if err != nil {
				return fmt.Errorf("inclusion proof (%d, %d): %v", q.a, q.b, err)
			}
			if want := o.inclusion(q.a, q.b); !sameHashes(got, want) {
				return fmt.Errorf("inclusion proof (%d, %d) differs from oracle", q.a, q.b)
			}
			if err := merkle.VerifyInclusion(o.leafHashes[q.a], q.a, q.b, got, o.root(q.b)); err != nil {
				return fmt.Errorf("inclusion(%d, %d) fails against oracle root: %v", q.a, q.b, err)
			}
		case 1:
			got, err := l.GetConsistencyProof(q.a, q.b)
			if err != nil {
				return fmt.Errorf("GetConsistencyProof(%d, %d): %v", q.a, q.b, err)
			}
			if want := o.consistency(q.a, q.b); !sameHashes(got, want) {
				return fmt.Errorf("GetConsistencyProof(%d, %d) differs from oracle", q.a, q.b)
			}
			if err := merkle.VerifyConsistency(q.a, q.b, o.root(q.a), o.root(q.b), got); err != nil {
				return fmt.Errorf("consistency(%d, %d) fails against oracle roots: %v", q.a, q.b, err)
			}
		case 2:
			h := o.leafHashes[q.a]
			idx, got, err := l.GetProofByHash(h, q.b)
			if err != nil {
				return fmt.Errorf("GetProofByHash(leaf %d, %d): %v", q.a, q.b, err)
			}
			wantIdx, ok := o.indexOf(h)
			if !ok || idx != wantIdx {
				return fmt.Errorf("GetProofByHash(leaf %d) resolved index %d, oracle says %d (known=%v)", q.a, idx, wantIdx, ok)
			}
			if want := o.inclusion(idx, q.b); !sameHashes(got, want) {
				return fmt.Errorf("GetProofByHash(leaf %d) path differs from oracle", q.a)
			}
		}
		return nil
	}

	// Error-class identity: the lock-free path must fail exactly like the
	// RFC surface expects, not just succeed identically.
	errChecks := func() error {
		if _, err := l.pub.Load().tree.InclusionProof(0, size+1); !errors.Is(err, merkle.ErrSizeOutOfRange) {
			return fmt.Errorf("inclusion above published head: err=%v, want ErrSizeOutOfRange", err)
		}
		if _, err := l.GetConsistencyProof(1, size+1); !errors.Is(err, merkle.ErrSizeOutOfRange) {
			return fmt.Errorf("consistency above published head: err=%v, want ErrSizeOutOfRange", err)
		}
		var unknown merkle.Hash
		unknown[0] = 0xEE
		if _, ok := o.indexOf(unknown); !ok {
			if _, _, err := l.GetProofByHash(unknown, size); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("proof-by-hash for unknown leaf: err=%v, want ErrNotFound", err)
			}
		}
		return nil
	}

	errs := make(chan error, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += par {
				if err := runOne(queries[i]); err != nil {
					errs <- err
					return
				}
			}
			if err := errChecks(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// differentialSchedule drives one log through a randomized
// stage/sequence/publish history, checking the lock-free proof surface
// against a freshly rebuilt oracle after every publish. reopen, when
// non-nil, closes and reopens the log at random points (durable modes).
func differentialSchedule(t *testing.T, l *Log, clk *virtualClock, par int, seed int64,
	rounds, maxAdd int, reopen func(*Log) *Log) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	serial := 0
	for round := 0; round < rounds; round++ {
		for i, n := 0, 1+rng.Intn(maxAdd); i < n; i++ {
			if _, err := l.AddChain([]byte(fmt.Sprintf("diff-%d-%d", seed, serial))); err != nil {
				t.Fatal(err)
			}
			serial++
			if rng.Intn(4) == 0 {
				clk.Advance(time.Duration(rng.Intn(5)) * time.Second)
			}
		}
		// Sometimes sequence without publishing: the proof surface must
		// keep serving the old head while the live tree runs ahead.
		if rng.Intn(3) == 0 {
			if _, err := l.Sequence(); err != nil {
				t.Fatal(err)
			}
			o := oracleFromLog(t, l, l.STH().TreeHead.TreeSize)
			checkProofsAgainstOracle(t, l, o, par, rng)
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
		o := oracleFromLog(t, l, l.STH().TreeHead.TreeSize)
		checkProofsAgainstOracle(t, l, o, par, rng)
		if reopen != nil && rng.Intn(3) == 0 {
			l = reopen(l)
			o := oracleFromLog(t, l, l.STH().TreeHead.TreeSize)
			checkProofsAgainstOracle(t, l, o, par, rng)
		}
	}
}

// TestProofOracleDifferential is the headline differential suite:
// in-memory, durable untiled (span larger than the log), and durable
// tiled (small span, so proofs cross the RAM/tile boundary) logs driven
// through randomized schedules at read parallelism 1, 4, and 13, with
// durable variants closed and reopened mid-history. Every inclusion,
// consistency and by-hash proof served from the published snapshot must
// equal the oracle's.
func TestProofOracleDifferential(t *testing.T) {
	for _, par := range []int{1, 4, 13} {
		par := par
		t.Run(fmt.Sprintf("inmemory/par=%d", par), func(t *testing.T) {
			t.Parallel()
			l, clk := newTestLog(t, Config{})
			differentialSchedule(t, l, clk, par, 1000+int64(par), 8, 40, nil)
		})
		t.Run(fmt.Sprintf("durable/par=%d", par), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfg := Config{TileSpan: 4096, Sync: SyncAtSequence}
			l, clk := newDurableLog(t, dir, cfg)
			reopen := func(old *Log) *Log {
				if err := old.Close(); err != nil {
					t.Fatal(err)
				}
				nl, err := Open(dir, Config{
					Name: old.cfg.Name, Operator: old.cfg.Operator,
					Signer: old.cfg.Signer, Clock: old.cfg.Clock,
					TileSpan: 4096, Sync: SyncAtSequence,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { nl.Close() })
				return nl
			}
			differentialSchedule(t, l, clk, par, 2000+int64(par), 8, 40, reopen)
		})
		t.Run(fmt.Sprintf("tiled/par=%d", par), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfg := Config{TileSpan: 8, Sync: SyncAtSequence}
			l, clk := newDurableLog(t, dir, cfg)
			reopen := func(old *Log) *Log {
				if err := old.Close(); err != nil {
					t.Fatal(err)
				}
				nl, err := Open(dir, Config{
					Name: old.cfg.Name, Operator: old.cfg.Operator,
					Signer: old.cfg.Signer, Clock: old.cfg.Clock,
					TileSpan: 8, Sync: SyncAtSequence,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { nl.Close() })
				return nl
			}
			differentialSchedule(t, l, clk, par, 3000+int64(par), 10, 40, reopen)
		})
	}
}

// TestProofOracleMidIntegration races proof readers against a Sequence
// integrating a large batch and checks the full differential surface,
// over and over until the batch is in, against the oracle captured at
// the last publish: a half-integrated batch must be invisible to every
// proof endpoint.
func TestProofOracleMidIntegration(t *testing.T) {
	const batch = 20_000
	clk := newClock()
	l, err := New(Config{
		Name: "mid-integration log", Operator: "TestOp",
		Signer: sct.NewFastSigner("mid-integration log"), Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	o := oracleFromLog(t, l, l.STH().TreeHead.TreeSize)

	for i := 0; i < batch; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("mid-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seqDone := make(chan error, 1)
	go func() {
		_, err := l.Sequence()
		seqDone <- err
	}()
	checks := 0
	for done := false; !done; checks++ {
		checkProofsAgainstOracle(t, l, o, 4, rng)
		select {
		case err := <-seqDone:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
	}
	t.Logf("%d oracle checks raced the integration of %d entries", checks, batch)
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	o2 := oracleFromLog(t, l, l.STH().TreeHead.TreeSize)
	checkProofsAgainstOracle(t, l, o2, 4, rng)
}

// TestProofOracleMidSeal drives proof readers from inside every seal
// lifecycle stage. The seal hook runs with the sequencer lock held (and,
// from the compaction stages on, the staging mutex too), so this doubles
// as a structural proof that the endpoints take neither lock: any call
// that did would self-deadlock here.
func TestProofOracleMidSeal(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 8, Sync: SyncAtSequence})
	rng := rand.New(rand.NewSource(7))

	var stages []string
	l.sealStageHook = func(stage string) {
		stages = append(stages, stage)
		// Published state during a seal is the head publishLocked just
		// installed; both the oracle rebuild (StreamEntries) and the proof
		// checks run on the lock-free snapshot from inside the seal.
		o := oracleFromLog(t, l, l.STH().TreeHead.TreeSize)
		checkProofsAgainstOracle(t, l, o, 2, rng)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 20; i++ {
			if _, err := l.AddChain([]byte(fmt.Sprintf("seal-%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Second)
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
	}
	l.sealStageHook = nil
	if len(stages) == 0 {
		t.Fatal("seal hook never fired: no tile was ever sealed")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzProofEquivalence fuzzes tree shape and query parameters through
// an in-memory and a durable tiled log built from the same submissions,
// comparing both against the oracle — including the error class when a
// query is out of range.
func FuzzProofEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Add(uint8(7), uint8(3), uint8(2), uint8(5), uint8(2), uint8(3))
	f.Add(uint8(33), uint8(32), uint8(8), uint8(33), uint8(3), uint8(40))
	f.Add(uint8(48), uint8(0), uint8(17), uint8(48), uint8(0), uint8(255))
	f.Add(uint8(21), uint8(20), uint8(21), uint8(22), uint8(4), uint8(21))
	f.Fuzz(func(t *testing.T, nEntries, index, first, second, spanSel, hashSel uint8) {
		n := uint64(nEntries%48) + 1
		span := uint64(2) << (spanSel % 4) // 2, 4, 8, 16
		clk := newClock()
		mk := func(open func(Config) (*Log, error)) *Log {
			l, err := open(Config{
				Name: "fuzz log", Operator: "FuzzOp",
				Signer: sct.NewFastSigner("fuzz log"), Clock: clk.Now,
				TileSpan: int(span), Sync: SyncAtSequence,
			})
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		mem := mk(New)
		dur := mk(func(cfg Config) (*Log, error) { return Open(t.TempDir(), cfg) })
		defer dur.Close()
		for _, l := range []*Log{mem, dur} {
			for i := uint64(0); i < n; i++ {
				if _, err := l.AddChain([]byte(fmt.Sprintf("fuzz-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := l.PublishSTH(); err != nil {
				t.Fatal(err)
			}
		}
		o := oracleFromLog(t, mem, n)
		if durRoot := merkle.Hash(dur.STH().TreeHead.RootHash); durRoot != o.root(n) {
			t.Fatalf("durable root differs from oracle at size %d", n)
		}

		i, m, s := uint64(index), uint64(first), uint64(second)
		for _, l := range []*Log{mem, dur} {
			got, err := l.pub.Load().tree.InclusionProof(i, s)
			switch {
			case s > n:
				if !errors.Is(err, merkle.ErrSizeOutOfRange) {
					t.Fatalf("inclusion(%d, %d) over size %d: err=%v, want ErrSizeOutOfRange", i, s, n, err)
				}
			case i >= s:
				if !errors.Is(err, merkle.ErrIndexOutOfRange) {
					t.Fatalf("inclusion(%d, %d): err=%v, want ErrIndexOutOfRange", i, s, err)
				}
			default:
				if err != nil {
					t.Fatalf("inclusion(%d, %d): %v", i, s, err)
				}
				if !sameHashes(got, o.inclusion(i, s)) {
					t.Fatalf("inclusion(%d, %d) differs from oracle", i, s)
				}
			}

			gotC, err := l.GetConsistencyProof(m, s)
			switch {
			case s > n:
				if !errors.Is(err, merkle.ErrSizeOutOfRange) {
					t.Fatalf("consistency(%d, %d) over size %d: err=%v, want ErrSizeOutOfRange", m, s, n, err)
				}
			case m == 0:
				if !errors.Is(err, merkle.ErrEmptyRange) {
					t.Fatalf("consistency(0, %d): err=%v, want ErrEmptyRange", s, err)
				}
			case m > s:
				if !errors.Is(err, merkle.ErrSizeOutOfRange) {
					t.Fatalf("consistency(%d, %d) inverted: err=%v, want ErrSizeOutOfRange", m, s, err)
				}
			default:
				if err != nil {
					t.Fatalf("consistency(%d, %d): %v", m, s, err)
				}
				if !sameHashes(gotC, o.consistency(m, s)) {
					t.Fatalf("consistency(%d, %d) differs from oracle", m, s)
				}
			}

			if h := uint64(hashSel); h < n && s >= 1 && s <= n {
				idx, path, err := l.GetProofByHash(o.leafHashes[h], s)
				if h >= s {
					if !errors.Is(err, ErrBadRange) {
						t.Fatalf("proof-by-hash(leaf %d, %d): err=%v, want ErrBadRange", h, s, err)
					}
				} else {
					if err != nil {
						t.Fatalf("proof-by-hash(leaf %d, %d): %v", h, s, err)
					}
					if idx != h || !sameHashes(path, o.inclusion(h, s)) {
						t.Fatalf("proof-by-hash(leaf %d, %d) differs from oracle", h, s)
					}
				}
			}
		}
	})
}
