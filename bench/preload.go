package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
	"ctrise/internal/stats"
)

// rng is splitmix64: seeding is one addition, so a generator per request
// costs nothing — which is what lets the open loop derive request k's
// inputs from (seed, k) no matter which connection sends it.
type rng struct{ s uint64 }

// Streams keep the inputs of different generators apart under one seed.
const (
	streamPreload = iota
	streamAdd     // certificates submitted by the timed workloads
	streamWorker  // per-connection choices in the closed loops
	streamOpen    // per-request choices in the open loop
	streamTrace   // op lists and certificates of the traced run
)

func newRNG(seed int64, stream, i uint64) rng {
	r := rng{uint64(seed)}
	r.s ^= r.next() + stream
	r.s ^= r.next() + i
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return stats.Mix64(r.s)
}

// intn is uniform on [0, n) up to a modulo bias of n/2^64.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// exp draws from the exponential distribution with the given mean.
func (r *rng) exp(mean float64) float64 {
	u := float64(r.next()>>11) / (1 << 53)
	return -mean * math.Log(1-u)
}

// certBytes is the size of every generated certificate: 1 KiB, about
// the size of a real leaf certificate's TBS.
const certBytes = 1024

// makeCert builds certificate i of a stream: incompressible bytes under
// a header that makes it unique within the seed.
func makeCert(seed int64, stream, i uint64) []byte {
	c := make([]byte, certBytes)
	r := newRNG(seed, stream, i)
	for off := 0; off < len(c); off += 8 {
		binary.LittleEndian.PutUint64(c[off:], r.next())
	}
	copy(c, "ctbench:")
	binary.BigEndian.PutUint64(c[8:], stream)
	binary.BigEndian.PutUint64(c[16:], i)
	return c
}

// leafHashOf is the Merkle leaf hash the log must assign to an x509
// entry with this certificate and SCT timestamp, computed client-side.
func leafHashOf(cert []byte, timestamp uint64) (merkle.Hash, error) {
	e := ctlog.Entry{Timestamp: timestamp, Type: sct.X509LogEntryType, Cert: cert}
	return e.LeafHash()
}

// leafBytes is the length of the MerkleTreeLeaf of one generated
// certificate, the "user data" the space metric divides by.
var leafBytes = func() int {
	e := ctlog.Entry{Type: sct.X509LogEntryType, Cert: make([]byte, certBytes)}
	leaf, err := e.MerkleTreeLeaf()
	if err != nil {
		panic(err)
	}
	return len(leaf)
}()

// logKey is a log's signing key: written into a data directory as the
// key.der ctlogd adopts, and kept to verify what ctlogd signs with it.
type logKey struct {
	signer   *sct.Signer
	verifier *sct.Verifier
	der      []byte
}

func newLogKey() (*logKey, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	der, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	return &logKey{sct.NewSignerFromKey(priv), sct.NewVerifier(&priv.PublicKey), der}, nil
}

// install creates dir and writes key.der in ctlogd's format.
func (k *logKey) install(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "key.der"), k.der, 0o600)
}

// preloadSigner signs tree heads with the real key but hands out
// unsigned SCTs: nothing stores an SCT, the preload discards them, and
// 65 536 ECDSA signatures would double the set-up time.
type preloadSigner struct{ *sct.Signer }

func (s preloadSigner) CreateSCT(ts uint64, _ sct.CertificateEntry) (*sct.SignedCertificateTimestamp, error) {
	return &sct.SignedCertificateTimestamp{SCTVersion: sct.V1, LogID: s.LogID(), Timestamp: ts}, nil
}

// preload is the fixed state the read workloads start from: a data
// directory ctlogd can open, and what the client knows about it without
// asking the log — every leaf hash and a reference tree over them.
type preload struct {
	key    *logKey
	hashes []merkle.Hash
	ref    *merkle.TiledTree // in-memory, for roots at any size
}

// publishEvery is the preload's publication cadence; with the default
// tile span of 1024 each publish seals four tiles.
const publishEvery = 4096

// buildPreload fills dir with a log of n generated certificates, fully
// sequenced, published and (for n a multiple of the tile span) sealed
// into tiles, then closes it. Entry timestamps come from a counter, so
// entry i is certificate i.
func buildPreload(dir string, seed int64, n int) (*preload, error) {
	key, err := newLogKey()
	if err != nil {
		return nil, err
	}
	if err := key.install(dir); err != nil {
		return nil, err
	}
	ref, err := merkle.NewTiled(ctlog.DefaultTileSpan, nil)
	if err != nil {
		return nil, err
	}
	p := &preload{key: key, hashes: make([]merkle.Hash, 0, n), ref: ref}
	tick := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	l, err := ctlog.Open(dir, ctlog.Config{
		Name:   "bench preload",
		Signer: preloadSigner{key.signer},
		Sync:   ctlog.SyncAtSequence,
		Clock: func() time.Time {
			tick = tick.Add(time.Millisecond)
			return tick
		},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		cert := makeCert(seed, streamPreload, uint64(i))
		s, err := l.AddChain(cert)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("preload entry %d: %w", i, err)
		}
		h, err := leafHashOf(cert, s.Timestamp)
		if err != nil {
			l.Close()
			return nil, err
		}
		p.hashes = append(p.hashes, h)
		ref.AppendLeafHash(h)
		if (i+1)%publishEvery == 0 || i+1 == n {
			if _, err := l.PublishSTH(); err != nil {
				l.Close()
				return nil, fmt.Errorf("preload publish at %d: %w", i+1, err)
			}
		}
	}
	// The reference tree must agree with the log before anything is
	// checked against it.
	want, err := ref.Root()
	if err != nil {
		l.Close()
		return nil, err
	}
	if got := l.STH().TreeHead; got.TreeSize != uint64(n) || merkle.Hash(got.RootHash) != want {
		l.Close()
		return nil, fmt.Errorf("preload: log head (%d, %x) differs from the reference tree (%d, %x)",
			got.TreeSize, got.RootHash, n, want)
	}
	return p, l.Close()
}
