package ctlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

type fixedReader struct{ rng *rand.Rand }

func (f *fixedReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f.rng.Intn(256))
	}
	return len(p), nil
}

// virtualClock is a manually-advanced clock.
type virtualClock struct{ now time.Time }

func (v *virtualClock) Now() time.Time          { return v.now }
func (v *virtualClock) Advance(d time.Duration) { v.now = v.now.Add(d) }
func newClock() *virtualClock {
	return &virtualClock{now: time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)}
}

func newTestLog(t *testing.T, cfg Config) (*Log, *virtualClock) {
	t.Helper()
	clk := newClock()
	signer, err := sct.NewSigner(&fixedReader{rng: rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Signer = signer
	cfg.Clock = clk.Now
	if cfg.Name == "" {
		cfg.Name = "Test Log"
		cfg.Operator = "TestOp"
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, clk
}

func TestNewRequiresSigner(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without signer must fail")
	}
}

func TestAddChainIssuesValidSCT(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	cert := []byte("a certificate")
	s, err := l.AddChain(cert)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Verifier().VerifySCT(s, sct.X509Entry(cert)); err != nil {
		t.Fatalf("SCT does not verify: %v", err)
	}
	// The SCT is a promise: the entry is staged, not yet in the tree.
	if l.TreeSize() != 0 || l.PendingCount() != 1 {
		t.Fatalf("tree size = %d, pending = %d", l.TreeSize(), l.PendingCount())
	}
	if n, _ := l.Sequence(); n != 1 {
		t.Fatalf("sequenced %d entries", n)
	}
	if l.TreeSize() != 1 || l.PendingCount() != 0 {
		t.Fatalf("after sequence: tree size = %d, pending = %d", l.TreeSize(), l.PendingCount())
	}
}

func TestAddPreChainIssuesValidSCT(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	var ikh [32]byte
	ikh[0] = 7
	tbs := []byte("tbs bytes")
	s, err := l.AddPreChain(ikh, tbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Verifier().VerifySCT(s, sct.PrecertEntry(ikh, tbs)); err != nil {
		t.Fatalf("precert SCT does not verify: %v", err)
	}
}

func TestDuplicateSubmissionReturnsSameTimestamp(t *testing.T) {
	l, clk := newTestLog(t, Config{})
	cert := []byte("dup cert")
	s1, err := l.AddChain(cert)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	s2, err := l.AddChain(cert)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Timestamp != s2.Timestamp {
		t.Fatalf("duplicate got new timestamp: %d vs %d", s1.Timestamp, s2.Timestamp)
	}
	if l.Sequence(); l.TreeSize() != 1 {
		t.Fatalf("duplicate created new entry: size=%d", l.TreeSize())
	}
	// Dedupe also answers after sequencing.
	clk.Advance(time.Hour)
	s3, err := l.AddChain(cert)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Timestamp != s1.Timestamp || l.PendingCount() != 0 {
		t.Fatalf("post-sequence duplicate: ts=%d pending=%d", s3.Timestamp, l.PendingCount())
	}
}

func TestSTHPublication(t *testing.T) {
	l, clk := newTestLog(t, Config{})
	sth0 := l.STH()
	if sth0.TreeHead.TreeSize != 0 {
		t.Fatalf("initial STH size = %d", sth0.TreeHead.TreeSize)
	}
	if sth0.TreeHead.RootHash != [32]byte(merkle.EmptyRoot()) {
		t.Fatal("initial STH root is not the empty root")
	}
	if _, err := l.AddChain([]byte("c1")); err != nil {
		t.Fatal(err)
	}
	// STH lags until published.
	if got := l.STH().TreeHead.TreeSize; got != 0 {
		t.Fatalf("unpublished STH advanced to %d", got)
	}
	clk.Advance(time.Minute)
	sth1, err := l.PublishSTH()
	if err != nil {
		t.Fatal(err)
	}
	if sth1.TreeHead.TreeSize != 1 {
		t.Fatalf("published size = %d", sth1.TreeHead.TreeSize)
	}
	if err := l.Verifier().VerifyTreeHead(sth1.TreeHead, sth1.Sig); err != nil {
		t.Fatalf("STH signature: %v", err)
	}
	if sth1.TreeHead.Timestamp <= sth0.TreeHead.Timestamp {
		t.Fatal("STH timestamp did not advance")
	}
}

func TestGetEntriesRanges(t *testing.T) {
	l, _ := newTestLog(t, Config{MaxGetEntries: 3})
	for i := 0; i < 10; i++ {
		if _, err := l.AddChain([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	got, err := l.GetEntries(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // MaxGetEntries
		t.Fatalf("entries = %d, want 3", len(got))
	}
	if got[0].Index != 2 || got[2].Index != 4 {
		t.Fatalf("indices = %d..%d", got[0].Index, got[2].Index)
	}
	// end beyond size truncates
	got, err = l.GetEntries(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("tail entries = %d, want 2", len(got))
	}
	// invalid ranges
	if _, err := l.GetEntries(5, 4); !errors.Is(err, ErrBadRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := l.GetEntries(10, 12); !errors.Is(err, ErrBadRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetEntriesRespectsPublishedSize(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	if _, err := l.AddChain([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChain([]byte("b")); err != nil {
		t.Fatal(err)
	}
	// Entry 1 exists in the tree but is not yet published.
	got, err := l.GetEntries(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("returned %d entries, want 1 (published only)", len(got))
	}
}

func TestProofByHash(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	var hashes []merkle.Hash
	for i := 0; i < 20; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("cert-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sth, err := l.PublishSTH()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := l.GetEntries(0, 19)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		h, err := e.LeafHash()
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	for i, h := range hashes {
		idx, proof, err := l.GetProofByHash(h, sth.TreeHead.TreeSize)
		if err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		if idx != uint64(i) {
			t.Fatalf("index = %d, want %d", idx, i)
		}
		if err := merkle.VerifyInclusion(h, idx, sth.TreeHead.TreeSize, proof, merkle.Hash(sth.TreeHead.RootHash)); err != nil {
			t.Fatalf("inclusion %d: %v", i, err)
		}
	}
	if _, _, err := l.GetProofByHash(merkle.Hash{0xff}, sth.TreeHead.TreeSize); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown hash err = %v", err)
	}
}

func TestConsistencyAcrossPublishes(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	var sths []SignedTreeHead
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			if _, err := l.AddChain([]byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		sth, err := l.PublishSTH()
		if err != nil {
			t.Fatal(err)
		}
		sths = append(sths, sth)
	}
	for i := 0; i < len(sths); i++ {
		for j := i; j < len(sths); j++ {
			m, n := sths[i].TreeHead.TreeSize, sths[j].TreeHead.TreeSize
			proof, err := l.GetConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("proof %d->%d: %v", m, n, err)
			}
			if err := merkle.VerifyConsistency(m, n,
				merkle.Hash(sths[i].TreeHead.RootHash), merkle.Hash(sths[j].TreeHead.RootHash), proof); err != nil {
				t.Fatalf("consistency %d->%d: %v", m, n, err)
			}
		}
	}
}

func TestCapacityOverload(t *testing.T) {
	l, clk := newTestLog(t, Config{CapacityPerSecond: 2})
	// Burst capacity = 2 tokens.
	if _, err := l.AddChain([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChain([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChain([]byte("c")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if l.rejected != 1 {
		t.Fatalf("rejected = %d", l.rejected)
	}
	// Refill after a second of virtual time.
	clk.Advance(time.Second)
	if _, err := l.AddChain([]byte("c")); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	// Duplicates bypass the bucket (they do not grow the log).
	clk.Advance(time.Second)
	for i := 0; i < 5; i++ {
		if _, err := l.AddChain([]byte("a")); err != nil {
			t.Fatalf("duplicate %d: %v", i, err)
		}
	}
}

// TestCapacityBelowOnePerSecond pins fractional capacities: the bucket
// holds one whole token however slow the rate, so a 0.5/s log admits
// one submission every two seconds instead of refusing them all.
func TestCapacityBelowOnePerSecond(t *testing.T) {
	l, clk := newTestLog(t, Config{CapacityPerSecond: 0.5})
	if _, err := l.AddChain([]byte("a")); err != nil {
		t.Fatalf("first add: %v", err)
	}
	clk.Advance(time.Second)
	if _, err := l.AddChain([]byte("b")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("add 1s later: err = %v, want ErrOverloaded", err)
	}
	clk.Advance(time.Second)
	if _, err := l.AddChain([]byte("b")); err != nil {
		t.Fatalf("add 2s after the first: %v", err)
	}
	if l.rejected != 1 {
		t.Fatalf("rejected = %d, want 1", l.rejected)
	}
}

func TestLeafRoundTrip(t *testing.T) {
	e := &Entry{
		Timestamp: 1523664000000,
		Type:      sct.PrecertLogEntryType,
		Cert:      []byte("tbs"),
	}
	e.IssuerKeyHash[3] = 0x42
	leaf, err := e.MerkleTreeLeaf()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMerkleTreeLeaf(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != e.Timestamp || got.Type != e.Type || !bytes.Equal(got.Cert, e.Cert) || got.IssuerKeyHash != e.IssuerKeyHash {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestLeafRoundTripX509(t *testing.T) {
	e := &Entry{Timestamp: 99, Type: sct.X509LogEntryType, Cert: []byte("certbytes")}
	leaf, err := e.MerkleTreeLeaf()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMerkleTreeLeaf(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != sct.X509LogEntryType || !bytes.Equal(got.Cert, e.Cert) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestParseLeafRejectsGarbage(t *testing.T) {
	if _, err := ParseMerkleTreeLeaf([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	e := &Entry{Timestamp: 1, Type: sct.X509LogEntryType, Cert: []byte("c")}
	leaf, _ := e.MerkleTreeLeaf()
	if _, err := ParseMerkleTreeLeaf(append(leaf, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	leaf[0] = 9 // bad version
	if _, err := ParseMerkleTreeLeaf(leaf); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestMetadataAccessors(t *testing.T) {
	l, _ := newTestLog(t, Config{Name: "Google Pilot log", Operator: "Google"})
	if l.Name() != "Google Pilot log" || l.Operator() != "Google" {
		t.Fatal("metadata accessors")
	}
	if l.LogID() == (sct.LogID{}) {
		t.Fatal("zero log ID")
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	const n = 50
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := l.AddChain([]byte(fmt.Sprintf("concurrent-%d", i)))
			done <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if l.PendingCount() != n {
		t.Fatalf("pending = %d, want %d", l.PendingCount(), n)
	}
	if got, _ := l.Sequence(); got != n {
		t.Fatalf("sequenced %d, want %d", got, n)
	}
	if l.TreeSize() != n {
		t.Fatalf("tree size = %d, want %d", l.TreeSize(), n)
	}
}
