package ctlog

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// Tests for the tiled storage engine: sealing, tile-backed reads and
// proofs, dedupe across the seal boundary, WAL compaction, recovery from
// tiles, and crash consistency at every seal lifecycle stage.

// fillAndPublish submits n distinct certificates (labeled by prefix) and
// publishes, returning the published head.
func fillAndPublish(t *testing.T, l *Log, clk *virtualClock, prefix string, n int) SignedTreeHead {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("%s-%04d", prefix, i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	sth, err := l.PublishSTH()
	if err != nil {
		t.Fatal(err)
	}
	return sth
}

// entryIdentity is a submission's dedupe key as the log stamps it.
func entryIdentity(ce sct.CertificateEntry) merkle.Hash { return merkle.Hash(ce.IdentityHash()) }

// collectLeaves streams [0, size) and returns each entry's leaf bytes.
func collectLeaves(t *testing.T, l *Log, size uint64) [][]byte {
	t.Helper()
	var leaves [][]byte
	if size == 0 {
		return leaves
	}
	err := l.StreamEntries(0, size-1, func(e *Entry) error {
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			return err
		}
		leaves = append(leaves, leaf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return leaves
}

// TestTiledSealAndServe drives a small-span durable log across several
// seal boundaries and checks the full read surface over the mixed
// sealed/resident tree: paging with tile clamping, streaming, proofs by
// hash for sealed and resident entries, and consistency across the seal.
func TestTiledSealAndServe(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 4})
	defer l.Close()

	var heads []SignedTreeHead
	heads = append(heads, fillAndPublish(t, l, clk, "seal", 11))
	if got := l.TiledThrough(); got != 8 {
		t.Fatalf("tiled through %d after 11 entries at span 4, want 8", got)
	}
	heads = append(heads, fillAndPublish(t, l, clk, "more", 3))
	if got := l.TiledThrough(); got != 12 {
		t.Fatalf("tiled through %d after 14 entries, want 12", got)
	}
	sth := heads[len(heads)-1]
	size := sth.TreeHead.TreeSize

	// Tile files exist for the sealed prefix only.
	var hashFileBytes int64
	for tile := uint64(0); tile < 3; tile++ {
		for _, ext := range []string{storage.TileExtLeaf, storage.TileExtHash, storage.TileExtIndex} {
			fi, err := os.Stat(tilePath(dir, tile, ext))
			if err != nil {
				t.Fatalf("sealed tile file missing: %v", err)
			}
			if ext == storage.TileExtHash {
				hashFileBytes += fi.Size()
			}
		}
	}

	// Paging: a get-entries page never crosses a tile boundary in the
	// sealed region, and the whole log is reachable by paging on from
	// each short response — the RFC contract clients rely on.
	page, err := l.GetEntries(0, size-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 4 || page[0].Index != 0 || page[3].Index != 3 {
		t.Fatalf("page from 0 spans %d entries (first %d), want the 4 of tile 0", len(page), page[0].Index)
	}
	if page, err = l.GetEntries(6, size-1); err != nil || len(page) != 2 || page[0].Index != 6 {
		t.Fatalf("mid-tile page: %d entries err=%v", len(page), err)
	}
	var paged []*Entry
	for next := uint64(0); next < size; {
		p, err := l.GetEntries(next, size-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) == 0 {
			t.Fatalf("empty page at %d", next)
		}
		paged = append(paged, p...)
		next += uint64(len(p))
	}
	if uint64(len(paged)) != size {
		t.Fatalf("paging collected %d of %d entries", len(paged), size)
	}
	for i, e := range paged {
		if e.Index != uint64(i) {
			t.Fatalf("paged entry %d has index %d", i, e.Index)
		}
	}

	// Streaming crosses tiles and the tail seamlessly.
	if got := collectLeaves(t, l, size); uint64(len(got)) != size {
		t.Fatalf("streamed %d of %d entries", len(got), size)
	}

	// Proofs: every entry — sealed and resident — proves into the head,
	// located by leaf hash through the tile blooms and hash pages.
	for _, e := range paged {
		lh, err := e.LeafHash()
		if err != nil {
			t.Fatal(err)
		}
		idx, proof, err := l.GetProofByHash(lh, size)
		if err != nil {
			t.Fatalf("proof for entry %d: %v", e.Index, err)
		}
		if idx != e.Index {
			t.Fatalf("leaf hash of entry %d resolved to %d", e.Index, idx)
		}
		if err := verifyInclusionForTest(lh, idx, sth, proof); err != nil {
			t.Fatalf("entry %d: %v", e.Index, err)
		}
	}

	// Consistency across the seal boundary.
	proof, err := l.GetConsistencyProof(heads[0].TreeHead.TreeSize, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyConsistencyForTest(heads[0], sth, proof); err != nil {
		t.Fatal(err)
	}

	// The reads above went through the page cache.
	s := l.CacheStats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("page cache never exercised: %+v", s)
	}
	// Everything fits the default budget, so all six pages the reads
	// asked for are resident (the seals left none): each tile's hash
	// page, charged its file bytes plus span 8-byte leaf keys, and its
	// offsets page, charged (span+1) 32-bit offsets. Proofs by hash find
	// their leaves in the hash page, so no index page is read; no leaf
	// byte is cached.
	if want := hashFileBytes + 3*4*8 + 3*(4+1)*4; s.Pages != 6 || s.Used != want {
		t.Fatalf("cache holds %d pages charged %d bytes, want 6 pages charged %d (hash files %d + 3 × 32 of leaf keys + 3 offsets pages of 20)", s.Pages, s.Used, want, hashFileBytes)
	}
}

// TestTiledReadViewsAgree holds the log's two read views of a page to
// one answer. The handler encodes a sealed page straight from the cached
// leaf bytes; GetEntries parses them into entries of the caller's own.
// Over random ranges of a span-4 log with sealed tiles and a resident
// tail, including ranges that start in the last sealed tile and reach
// into the tail, the handler's body must equal WriteGetEntries of
// GetEntries byte for byte; sealed entries must equal the entries the
// log held before their seal, field for field, with Index set; and two
// calls on one range must not share entries.
func TestTiledReadViewsAgree(t *testing.T) {
	l, clk := newDurableLog(t, t.TempDir(), Config{TileSpan: 4, MaxGetEntries: 7})
	defer l.Close()
	// The seal hook runs inside PublishSTH, on this goroutine, with the
	// tiles written and the tail not yet pruned.
	preSeal := map[uint64]Entry{}
	l.sealStageHook = func(stage string) {
		if stage == "tiles-written" {
			for _, e := range l.entries {
				preSeal[e.Index] = *e
			}
		}
	}
	rng := rand.New(rand.NewSource(33))
	var ikh [32]byte
	for round := 0; round < 12; round++ {
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			cert := make([]byte, 1+rng.Intn(200))
			rng.Read(cert)
			var err error
			if i%3 == 2 {
				rng.Read(ikh[:])
				_, err = l.AddPreChain(ikh, cert)
			} else {
				_, err = l.AddChain(cert)
			}
			if err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Second)
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
	}
	l.sealStageHook = nil
	size, sealed := l.STH().TreeHead.TreeSize, l.TiledThrough()
	if sealed < 8 || size == sealed {
		t.Fatalf("want several sealed tiles and a tail, got %d sealed of %d", sealed, size)
	}

	h := l.Handler()
	var kinds struct{ sealed, tail, crossing int }
	for trial := 0; trial < 300; trial++ {
		start := uint64(rng.Int63n(int64(size)))
		if trial%4 == 0 {
			start = sealed - 1 - uint64(rng.Intn(4))
		}
		end := start + uint64(rng.Intn(10))
		what := fmt.Sprintf("[%d, %d] of %d (%d sealed)", start, end, size, sealed)
		switch {
		case start >= sealed:
			kinds.tail++
		case end >= sealed:
			kinds.crossing++
		default:
			kinds.sealed++
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, end), nil))
		ents, err := l.GetEntries(start, end)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want := httptest.NewRecorder()
		if err := WriteGetEntries(want, ents); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: handler answered %d with\n%.200s\nwant\n%.200s", what, rec.Code, rec.Body, want.Body)
		}
		if start >= sealed {
			continue
		}

		for i, e := range ents {
			idx := start + uint64(i)
			p, ok := preSeal[idx]
			if !ok {
				t.Fatalf("%s: entry %d was sealed without the hook seeing it", what, idx)
			}
			if e.Index != idx || e.Timestamp != p.Timestamp || e.Type != p.Type || !bytes.Equal(e.Cert, p.Cert) ||
				e.IssuerKeyHash != p.IssuerKeyHash || !bytes.Equal(e.Extensions, p.Extensions) {
				t.Fatalf("%s: entry %d reads back as %+v, sealed as %+v", what, idx, *e, p)
			}
		}
		again, err := l.GetEntries(start, end)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i := range ents {
			if again[i] == ents[i] {
				t.Fatalf("%s: two calls share entry %d", what, ents[i].Index)
			}
		}
	}
	if kinds.sealed == 0 || kinds.tail == 0 || kinds.crossing == 0 {
		t.Fatalf("ranges missed a kind: %+v", kinds)
	}
}

// TestTiledMatchesInMemory pins the determinism contract the ecosystem
// suites depend on: a durable log sealing aggressively (tiny span)
// publishes byte-identical tree heads to an in-memory log fed the same
// submissions on the same clock — sealing changes where bytes live,
// never what they are.
func TestTiledMatchesInMemory(t *testing.T) {
	run := func(l *Log, clk *virtualClock) []SignedTreeHead {
		var heads []SignedTreeHead
		for round := 0; round < 4; round++ {
			for i := 0; i < 7; i++ {
				if _, err := l.AddChain([]byte(fmt.Sprintf("det-%d-%d", round, i))); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Second)
			}
			sth, err := l.PublishSTH()
			if err != nil {
				t.Fatal(err)
			}
			heads = append(heads, sth)
			clk.Advance(time.Hour)
		}
		return heads
	}
	memClk := newClock()
	mem, err := New(Config{Name: "M", Signer: sct.NewFastSigner("det-log"), Clock: memClk.Now, TileSpan: 4})
	if err != nil {
		t.Fatal(err)
	}
	memHeads := run(mem, memClk)

	dur, durClk := newDurableLog(t, t.TempDir(), Config{Signer: sct.NewFastSigner("det-log"), TileSpan: 4})
	defer dur.Close()
	durHeads := run(dur, durClk)

	if dur.TiledThrough() == 0 {
		t.Fatal("durable log never sealed; the comparison is vacuous")
	}
	for i := range memHeads {
		if memHeads[i].TreeHead != durHeads[i].TreeHead {
			t.Fatalf("head %d diverged:\nmem %+v\ndur %+v", i, memHeads[i].TreeHead, durHeads[i].TreeHead)
		}
		if !bytes.Equal(memHeads[i].Sig.Signature, durHeads[i].Sig.Signature) {
			t.Fatalf("head %d signature bytes diverged", i)
		}
	}
}

// TestTiledReopen proves a log reopened from tiles + snapshot + WAL tail
// serves byte-identical state: STH, every entry (straight from the tile
// files), and verifying proofs — and keeps growing consistently.
func TestTiledReopen(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 4})
	before := fillAndPublish(t, l, clk, "reopen", 14)
	wantLeaves := collectLeaves(t, l, before.TreeHead.TreeSize)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, clk2 := newDurableLog(t, dir, Config{TileSpan: 4})
	defer l2.Close()
	sameLogState(t, l, l2)
	if got := l2.TiledThrough(); got != 12 {
		t.Fatalf("reopened tiledThrough %d, want 12", got)
	}
	gotLeaves := collectLeaves(t, l2, before.TreeHead.TreeSize)
	if len(gotLeaves) != len(wantLeaves) {
		t.Fatalf("reopened log streams %d entries, want %d", len(gotLeaves), len(wantLeaves))
	}
	for i := range wantLeaves {
		if !bytes.Equal(gotLeaves[i], wantLeaves[i]) {
			t.Fatalf("entry %d differs after reopen from tiles", i)
		}
	}
	// Proofs over the recovered tree, including tile-resident leaves.
	sth := l2.STH()
	for i, leaf := range wantLeaves {
		lh := merkle.HashLeaf(leaf)
		idx, proof, err := l2.GetProofByHash(lh, sth.TreeHead.TreeSize)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if err := verifyInclusionForTest(lh, idx, sth, proof); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	// Growth after reopen links consistently to the pre-restart head.
	after := fillAndPublish(t, l2, clk2, "post", 5)
	proof, err := l2.GetConsistencyProof(before.TreeHead.TreeSize, after.TreeHead.TreeSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyConsistencyForTest(before, after, proof); err != nil {
		t.Fatal(err)
	}
}

// TestTiledSpanIsSticky proves the directory's span wins over the
// config: a log sealed at span 4 reopened with TileSpan 16 keeps span 4
// (tile files are immutable; a span change would orphan them all).
func TestTiledSpanIsSticky(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 4})
	fillAndPublish(t, l, clk, "sticky", 8)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := newDurableLog(t, dir, Config{TileSpan: 16})
	defer l2.Close()
	if got := l2.tree.Span(); got != 4 {
		t.Fatalf("reopened span %d, want the directory's 4", got)
	}
	if got := l2.TiledThrough(); got != 8 {
		t.Fatalf("reopened tiledThrough %d, want 8", got)
	}
}

// TestTiledDedupeAcrossSealAndReopen proves the two-level dedupe index:
// an entry whose original has been sealed out of RAM — and, separately,
// one reopened from disk — still answers a resubmission with the
// original SCT timestamp via the per-tile bloom + index files.
func TestTiledDedupeAcrossSealAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 4})
	target := []byte("the-original-cert")
	orig, err := l.AddChain(target)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	fillAndPublish(t, l, clk, "filler", 7) // seals tiles 0..1, evicting the original from RAM
	if l.TiledThrough() != 8 {
		t.Fatalf("tiledThrough %d, want 8", l.TiledThrough())
	}
	if inRAM := func() bool {
		l.stageMu.Lock()
		defer l.stageMu.Unlock()
		_, ok := l.dedupe[entryIdentity(sct.X509Entry(target))]
		return ok
	}(); inRAM {
		t.Fatal("sealed entry still pinned in the RAM dedupe map")
	}
	clk.Advance(72 * time.Hour)
	dup, err := l.AddChain(target)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Timestamp != orig.Timestamp {
		t.Fatalf("sealed duplicate got timestamp %d, want original %d", dup.Timestamp, orig.Timestamp)
	}
	if n := l.PendingCount(); n != 0 {
		t.Fatalf("duplicate staged a new entry (%d pending)", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Across a restart the blooms reload from the tile index files.
	l2, clk2 := newDurableLog(t, dir, Config{TileSpan: 4})
	defer l2.Close()
	clk2.Advance(96 * time.Hour)
	dup2, err := l2.AddChain(target)
	if err != nil {
		t.Fatal(err)
	}
	if dup2.Timestamp != orig.Timestamp {
		t.Fatalf("post-reopen duplicate got timestamp %d, want original %d", dup2.Timestamp, orig.Timestamp)
	}
	if n := l2.PendingCount(); n != 0 {
		t.Fatalf("post-reopen duplicate staged a new entry (%d pending)", n)
	}
}

// TestTiledParkedSealBlocksNoOne parks a seal at "tiles-written" — tile
// files durable and registered, nothing installed yet — on a log that
// fsyncs every submission, and requires every submitter and reader path
// to finish while it is parked: add-chain with a new identity and with a
// duplicate of a sealing entry, get-sth, get-entries and
// get-proof-by-hash, all through the HTTP handler, each within 2 s. A
// seal writes and verifies its tiles under the sequencer lock alone, so
// none of them may wait on it. CI runs it with -race -count=5.
func TestTiledParkedSealBlocksNoOne(t *testing.T) {
	l, clk := newDurableLog(t, t.TempDir(), Config{TileSpan: 8})
	defer l.Close()
	var origTS uint64
	for i := 0; i < 10; i++ {
		s, err := l.AddChain([]byte(fmt.Sprintf("parked-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			origTS = s.Timestamp
		}
		clk.Advance(time.Second)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	releaseSeal := sync.OnceFunc(func() { close(release) })
	defer releaseSeal() // before Close, which waits for the seal
	l.sealStageHook = func(stage string) {
		if stage == "tiles-written" {
			close(parked)
			<-release
		}
	}
	pubDone := make(chan error, 1)
	go func() {
		_, err := l.PublishSTH()
		pubDone <- err
	}()
	<-parked

	h := l.Handler()
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	chain := func(cert string) string {
		return fmt.Sprintf(`{"chain":[%q]}`, base64.StdEncoding.EncodeToString([]byte(cert)))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if rec := serve("POST", "/ct/v1/add-chain", chain("parked-new")); rec.Code != http.StatusOK {
			t.Errorf("add-chain, new identity: %d %s", rec.Code, rec.Body)
		}
		var dup AddChainResponse
		rec := serve("POST", "/ct/v1/add-chain", chain("parked-02"))
		if err := json.Unmarshal(rec.Body.Bytes(), &dup); rec.Code != http.StatusOK || err != nil || dup.Timestamp != origTS {
			t.Errorf("add-chain, duplicate of a sealing entry: %d (%v), timestamp %d, want %d", rec.Code, err, dup.Timestamp, origTS)
		}
		var sth GetSTHResponse
		rec = serve("GET", "/ct/v1/get-sth", "")
		if err := json.Unmarshal(rec.Body.Bytes(), &sth); rec.Code != http.StatusOK || err != nil || sth.TreeSize != 10 {
			t.Errorf("get-sth: %d (%v), tree size %d, want the head being sealed (10)", rec.Code, err, sth.TreeSize)
		}
		if rec := serve("GET", "/ct/v1/get-entries?start=0&end=9", ""); rec.Code != http.StatusOK {
			t.Errorf("get-entries: %d %s", rec.Code, rec.Body)
		}
		ents, err := l.GetEntries(2, 2)
		if err != nil {
			t.Errorf("GetEntries: %v", err)
			return
		}
		lh, err := ents[0].LeafHash()
		if err != nil {
			t.Errorf("LeafHash: %v", err)
			return
		}
		q := "/ct/v1/get-proof-by-hash?tree_size=10&hash=" + url.QueryEscape(base64.StdEncoding.EncodeToString(lh[:]))
		if rec := serve("GET", q, ""); rec.Code != http.StatusOK {
			t.Errorf("get-proof-by-hash: %d %s", rec.Code, rec.Body)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a submitter or reader waited on a parked seal")
	}
	select {
	case err := <-pubDone:
		t.Fatalf("the seal finished while parked (err=%v)", err)
	default:
	}

	releaseSeal()
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}
	l.sealStageHook = nil
	if got := l.TiledThrough(); got != 8 {
		t.Fatalf("tiled through %d after the seal, want 8", got)
	}
	// The submission accepted mid-seal sequences normally; the duplicate
	// staged nothing.
	if sth, err := l.PublishSTH(); err != nil || sth.TreeHead.TreeSize != 11 {
		t.Fatalf("next publish: size %d (err %v), want 11", sth.TreeHead.TreeSize, err)
	}
}

// TestTiledDedupeAcrossConcurrentSeal resubmits already-sequenced
// identities from several goroutines while the sequencer seals them into
// tiles — registering each tile, then, under the staging mutex, dropping
// its identities from the dedupe map. Wherever a duplicate lands in that
// sequence it must be answered with the original SCT timestamp, and no
// identity may ever be staged twice: the log ends with exactly one entry
// per identity, before and after a reopen. CI runs it with -race
// -count=5.
func TestTiledDedupeAcrossConcurrentSeal(t *testing.T) {
	const (
		rounds       = 12
		perRound     = 20 // not a multiple of the span: tails straddle tiles
		resubmitters = 4
	)
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 8, Sync: SyncAtSequence})
	// answered counts duplicates answered; inWindow, those answered
	// between a seal's tiles registering and its compaction finishing.
	// The sleep widens that window.
	var answered, inWindow atomic.Int64
	var atRegister int64
	l.sealStageHook = func(stage string) {
		switch stage {
		case "tiles-written":
			atRegister = answered.Load()
			time.Sleep(time.Millisecond)
		case "snapshot-anchored":
			inWindow.Add(answered.Load() - atRegister)
		}
	}
	var certs []string
	orig := map[string]uint64{}
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			cert := fmt.Sprintf("dedupe-race-%02d-%02d", round, i)
			s, err := l.AddChain([]byte(cert))
			if err != nil {
				t.Fatal(err)
			}
			certs = append(certs, cert)
			orig[cert] = s.Timestamp
			clk.Advance(time.Second)
		}
		if _, err := l.Sequence(); err != nil {
			t.Fatal(err)
		}
		// A duplicate wrongly staged from here on would carry a fresh
		// timestamp. The resubmitters keep cycling through every identity
		// until the publish — and the seal inside it — has returned.
		clk.Advance(time.Hour)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < resubmitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for {
					for i := range certs {
						cert := certs[(i+g*len(certs)/resubmitters)%len(certs)]
						s, err := l.AddChain([]byte(cert))
						if err != nil {
							t.Errorf("resubmitting %s: %v", cert, err)
							return
						}
						if s.Timestamp != orig[cert] {
							t.Errorf("resubmitted %s answered with timestamp %d, want the original %d", cert, s.Timestamp, orig[cert])
							return
						}
						answered.Add(1)
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(g)
		}
		_, err := l.PublishSTH()
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			t.FailNow()
		}
		if n := l.PendingCount(); n != 0 {
			t.Fatalf("round %d: duplicates staged %d new entries", round, n)
		}
	}
	l.sealStageHook = nil
	check := func(l *Log) {
		t.Helper()
		size := uint64(len(certs))
		if got := l.STH().TreeHead.TreeSize; got != size || l.TreeSize() != size || l.PendingCount() != 0 {
			t.Fatalf("published %d, tree %d, pending %d; want exactly one entry per identity (%d)", got, l.TreeSize(), l.PendingCount(), size)
		}
		seen := map[string]bool{}
		for _, leaf := range collectLeaves(t, l, size) {
			e, err := ParseMerkleTreeLeaf(leaf)
			if err != nil {
				t.Fatal(err)
			}
			if seen[string(e.Cert)] {
				t.Fatalf("identity %s sequenced twice", e.Cert)
			}
			seen[string(e.Cert)] = true
		}
	}
	check(l)
	t.Logf("%d duplicates answered, %d of them while a seal registered and installed", answered.Load(), inWindow.Load())
	if inWindow.Load() == 0 {
		t.Fatal("no duplicate was answered inside a seal: the race never ran")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := newDurableLog(t, dir, Config{TileSpan: 8})
	defer l2.Close()
	check(l2)
}

// TestTiledWALBounded is the acceptance check for the open PR 4 item:
// under sustained aligned load the WAL never outgrows one seal cycle —
// after every boundary-crossing publish it is back to its bare header,
// at any log size.
func TestTiledWALBounded(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 8})
	defer l.Close()
	walPath := filepath.Join(dir, storage.WALName)
	var maxWAL int64
	for round := 0; round < 40; round++ {
		fillAndPublish(t, l, clk, fmt.Sprintf("load-%d", round), 8)
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != storage.MagicLen {
			t.Fatalf("round %d: WAL is %d bytes after an aligned publish, want the bare header (%d)", round, fi.Size(), storage.MagicLen)
		}
		if fi.Size() > maxWAL {
			maxWAL = fi.Size()
		}
	}
	if l.TreeSize() != 320 || l.TiledThrough() != 320 {
		t.Fatalf("tree %d / tiled %d, want 320/320", l.TreeSize(), l.TiledThrough())
	}
}

// TestTiledSealCrashAtEveryStage captures the full durable image (WAL,
// snapshot, tiles) at every stage boundary of the seal lifecycle — via
// the sealStageHook, while the live log is mid-seal — and reopens each
// image as if the process had been killed there. Every stage must
// recover exactly the state the live log held, because every stage's
// on-disk image is self-consistent by construction: tiles before
// snapshot, snapshot before truncate, re-anchor after truncate. Each
// recovered log must then keep growing: its next publish seals and is
// consistent with the recovered head.
func TestTiledSealCrashAtEveryStage(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 4})

	type image struct {
		files map[string][]byte // relative path -> contents
	}
	captured := map[string]image{}
	snapshotDir := func() image {
		img := image{files: map[string][]byte{}}
		for _, rel := range []string{storage.WALName, storage.SnapshotName} {
			if data, err := os.ReadFile(filepath.Join(dir, rel)); err == nil {
				img.files[rel] = data
			}
		}
		tilesDir := filepath.Join(dir, storage.TilesDirName)
		names, _ := os.ReadDir(tilesDir)
		for _, de := range names {
			data, err := os.ReadFile(filepath.Join(tilesDir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			img.files[filepath.Join(storage.TilesDirName, de.Name())] = data
		}
		return img
	}
	l.sealStageHook = func(stage string) {
		captured[stage] = snapshotDir()
	}

	sth := fillAndPublish(t, l, clk, "crash", 10) // seals tiles 0..1 in one publish
	wantLeaves := collectLeaves(t, l, sth.TreeHead.TreeSize)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	stages := []string{"tiles-written", "snapshot-pre-truncate", "wal-truncated", "snapshot-anchored"}
	for _, stage := range stages {
		img, ok := captured[stage]
		if !ok {
			t.Fatalf("seal never reached stage %q", stage)
		}
		t.Run(stage, func(t *testing.T) {
			crashDir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(crashDir, storage.TilesDirName), 0o755); err != nil {
				t.Fatal(err)
			}
			for rel, data := range img.files {
				if err := os.WriteFile(filepath.Join(crashDir, rel), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l2, clk2 := newDurableLog(t, crashDir, Config{TileSpan: 4})
			defer l2.Close()
			// Every stage happens after the STH was durably published, so
			// recovery must land on exactly that head and tree.
			got := l2.STH()
			if got.TreeHead != sth.TreeHead {
				t.Fatalf("recovered head %+v, want %+v", got.TreeHead, sth.TreeHead)
			}
			gotLeaves := collectLeaves(t, l2, got.TreeHead.TreeSize)
			if len(gotLeaves) != len(wantLeaves) {
				t.Fatalf("recovered %d entries, want %d", len(gotLeaves), len(wantLeaves))
			}
			for i := range wantLeaves {
				if !bytes.Equal(gotLeaves[i], wantLeaves[i]) {
					t.Fatalf("entry %d differs after stage-%s crash", i, stage)
				}
			}
			// And the log keeps accepting, sealing, and publishing.
			next := fillAndPublish(t, l2, clk2, "after-"+stage, 6)
			proof, err := l2.GetConsistencyProof(sth.TreeHead.TreeSize, next.TreeHead.TreeSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := verifyConsistencyForTest(sth, next, proof); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// tilePath is storage.Store.TilePath for a directory whose log may be
// closed.
func tilePath(dir string, tile uint64, ext string) string {
	return filepath.Join(dir, storage.TilesDirName, fmt.Sprintf("%016x.%s", tile, ext))
}

// corruptOrServed reports whether err is what a read should return:
// storage.ErrCorrupt when the read must fail, nil when it must serve.
func corruptOrServed(err error, wantCorrupt bool) bool {
	if wantCorrupt {
		return errors.Is(err, storage.ErrCorrupt)
	}
	return err == nil
}

// flipTileByte flips one bit near the end of a tile file: inside the
// last record, so the file's framing survives and its CRC does not.
func flipTileByte(t *testing.T, dir string, tile uint64, ext string) {
	t.Helper()
	path := tilePath(dir, tile, ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// damageLeafRecord rewrites a tile's leaf file with the record of one
// entry damaged: a bit flipped inside its payload (framing intact, CRC
// wrong), or, with cut, the file truncated in the middle of it.
func damageLeafRecord(t *testing.T, dir string, tile uint64, entry int, cut bool) {
	t.Helper()
	path := tilePath(dir, tile, storage.TileExtLeaf)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := storage.DecodeLeafTile(data)
	if err != nil {
		t.Fatal(err)
	}
	offs, err := storage.LeafTileOffsets(lt)
	if err != nil {
		t.Fatal(err)
	}
	mid := (offs[entry] + offs[entry+1]) / 2
	if cut {
		data = data[:mid]
	} else {
		data[mid] ^= 0x40
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// unparseLeafRecord rewrites a tile's leaf file with one entry's leaf
// given an unsupported version byte: canonical encoding, fresh CRCs,
// every record where it was — a record only the leaf-syntax check
// rejects.
func unparseLeafRecord(t *testing.T, dir string, tile uint64, entry int) {
	t.Helper()
	path := tilePath(dir, tile, storage.TileExtLeaf)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := storage.DecodeLeafTile(data)
	if err != nil {
		t.Fatal(err)
	}
	lt.Leaves[entry] = append([]byte{7}, lt.Leaves[entry][1:]...)
	if err := os.WriteFile(path, storage.EncodeLeafTile(nil, lt), 0o644); err != nil {
		t.Fatal(err)
	}
}

// forgeLeafTile rewrites a tile's leaf file as a perfectly well-formed
// tile (canonical encoding, fresh CRCs, right label) whose first leaf
// carries a different timestamp: what a CRC cannot see and only the
// cross-check against the hash tile can.
func forgeLeafTile(t *testing.T, dir string, tile uint64) {
	t.Helper()
	path := tilePath(dir, tile, storage.TileExtLeaf)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := storage.DecodeLeafTile(data)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ParseMerkleTreeLeaf(lt.Leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	e.Timestamp++
	if lt.Leaves[0], err = e.MerkleTreeLeaf(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, storage.EncodeLeafTile(nil, lt), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reshapeIndexBloom rewrites a tile's index file with its identity bloom
// rebuilt 64 times larger, every key still in it: canonical encoding,
// fresh CRCs, right label — a file only the bloom shape check rejects.
func reshapeIndexBloom(t *testing.T, dir string, tile uint64) {
	t.Helper()
	path := tilePath(dir, tile, storage.TileExtIndex)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := storage.DecodeTileIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	ix.IDBloom = storage.NewBloom(64 * int(ix.Span))
	for _, r := range ix.ID {
		ix.IDBloom.Add(r.Hash)
	}
	if err := os.WriteFile(path, storage.EncodeTileIndex(ix), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTiledCorruptTileFailsReads pins where each kind of tile corruption
// is caught, at the Log API and through HTTP. A leaf file is CRC-,
// framing- and label-checked whole when its offsets page is built, and
// each read checks the label and the records it serves; it is
// cross-checked against the hash tile and the registered root once per
// tile per process (at its seal, or on its first offsets-page build
// after Open). The hash tile is self-verifying and root-pinned on every
// page-in of its own, which get-entries of a checked tile does not
// cause. Span 4 over 9 entries seals tiles 0 and 1 and leaves one entry
// in the resident tail. Every row runs under two cache settings: a
// pass-through cache, so every read builds the offsets page from the
// whole file, and (subtests "warm offsets page/…") the default budget,
// where the reads before the damage cached the offsets pages, so each
// later read of tile 0 checks only the bytes it reads — damage
// elsewhere in the tile surfaces when that record is read.
func TestTiledCorruptTileFailsReads(t *testing.T) {
	rows := []corruptTileRow{
		{
			name:        "leaf byte flip fails every read by CRC, even on a tile this process sealed",
			corrupt:     func(t *testing.T, dir string) { flipTileByte(t, dir, 0, storage.TileExtLeaf) },
			entriesFail: true,
		},
		{
			name:       "hash byte flip fails proofs; get-entries of the checked tile does not read it",
			corrupt:    func(t *testing.T, dir string) { flipTileByte(t, dir, 0, storage.TileExtHash) },
			proofsFail: true,
		},
		{
			name:        "CRC-valid wrong leaf tile fails its first page-in after open, and the retry",
			corrupt:     func(t *testing.T, dir string) { forgeLeafTile(t, dir, 0) },
			reopen:      true,
			entriesFail: true,
		},
		{
			name: "another tile's leaf file fails the label check",
			corrupt: func(t *testing.T, dir string) {
				data, err := os.ReadFile(tilePath(dir, 1, storage.TileExtLeaf))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tilePath(dir, 0, storage.TileExtLeaf), data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			entriesFail: true,
		},
		{
			name:        "leaf byte flip in entry 1 fails the reads that cover it, not those that miss it",
			corrupt:     func(t *testing.T, dir string) { damageLeafRecord(t, dir, 0, 1, false) },
			entriesFail: true,
			missed:      &[2]uint64{2, 3},
		},
		{
			name:        "leaf byte flip in entry 2 fails the reads that cover it, not those that miss it",
			corrupt:     func(t *testing.T, dir string) { damageLeafRecord(t, dir, 0, 2, false) },
			entriesFail: true,
			missed:      &[2]uint64{0, 1},
		},
		{
			name:        "CRC-valid leaf of an unknown version fails the reads that cover it",
			corrupt:     func(t *testing.T, dir string) { unparseLeafRecord(t, dir, 0, 1) },
			entriesFail: true,
			missed:      &[2]uint64{2, 3},
		},
		{
			name:        "leaf file cut inside entry 3 fails instead of serving a short page",
			corrupt:     func(t *testing.T, dir string) { damageLeafRecord(t, dir, 0, 3, true) },
			entriesFail: true,
			missed:      &[2]uint64{0, 2},
		},
	}
	for _, cache := range []struct {
		prefix string
		bytes  int64
	}{{"", -1}, {"warm offsets page/", 0}} {
		for _, row := range rows {
			t.Run(cache.prefix+row.name, func(t *testing.T) {
				testCorruptTile(t, row, cache.bytes)
			})
		}
	}
}

// corruptTileRow is one kind of damage TestTiledCorruptTileFailsReads
// does to a log's tiles, and what reads must do after it.
type corruptTileRow struct {
	name    string
	corrupt func(t *testing.T, dir string)
	// reopen closes the log before corrupting and reopens it after,
	// so tile 0 is unchecked when it is read.
	reopen bool
	// entriesFail / proofsFail: get-entries of tile 0, and the proofs
	// that need tile 0's hash tile, fail ErrCorrupt (500) — on every
	// attempt. Otherwise they serve, byte-exact.
	entriesFail, proofsFail bool
	// missed, when set, is a range of tile 0 that does not cover the
	// damage: served byte-exact when the offsets page is warm, failed by
	// the whole-file build when the cache passes through.
	missed *[2]uint64
}

// testCorruptTile runs one row of TestTiledCorruptTileFailsReads under
// one page-cache budget.
func testCorruptTile(t *testing.T, row corruptTileRow, cacheBytes int64) {
	dir := t.TempDir()
	cfg := Config{TileSpan: 4, PageCacheBytes: cacheBytes}
	l, clk := newDurableLog(t, dir, cfg)
	sth := fillAndPublish(t, l, clk, "corrupt", 9)
	size := sth.TreeHead.TreeSize
	want := collectLeaves(t, l, size)
	if row.reopen {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	row.corrupt(t, dir)
	if row.reopen {
		l, _ = newDurableLog(t, dir, cfg)
	}
	defer l.Close()
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	// expect asserts one read's outcome at the Log API (err) and the
	// same read's status through HTTP.
	expect := func(what string, fail bool, err error, path string) {
		t.Helper()
		if !corruptOrServed(err, fail) {
			t.Fatalf("%s: err=%v, want corrupt=%v", what, err, fail)
		}
		status := http.StatusOK
		if fail {
			status = http.StatusInternalServerError
		}
		if got := get(t, srv, path).StatusCode; got != status {
			t.Fatalf("%s over HTTP: status %d, want %d", what, got, status)
		}
	}
	entries := func(what string, start, end uint64, fail bool) {
		t.Helper()
		page, err := l.GetEntries(start, end)
		expect(what, fail, err, fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, end))
		for i, e := range page {
			if leaf, err := e.MerkleTreeLeaf(); err != nil || !bytes.Equal(leaf, want[start+uint64(i)]) {
				t.Fatalf("%s: entry %d is not the submitted leaf (err=%v)", what, start+uint64(i), err)
			}
		}
		if !fail && uint64(len(page)) != end-start+1 {
			t.Fatalf("%s: %d entries, want %d", what, len(page), end-start+1)
		}
	}

	// Twice: a failure must not be a first-read-only event (a failed
	// cross-check never marks the tile checked; CRC and label run on
	// every read), and a success must not depend on the first read.
	for attempt := 0; attempt < 2; attempt++ {
		entries("get-entries of tile 0", 0, 3, row.entriesFail)
		if row.missed != nil {
			entries("get-entries of tile 0 that misses the damage", row.missed[0], row.missed[1], cacheBytes < 0)
		}
	}
	// Proofs that resolve nodes inside tile 0 read its hash tile, not
	// its leaf file.
	lh := merkle.HashLeaf(want[1])
	_, _, err := l.GetProofByHash(lh, size)
	expect("proof by hash into tile 0", row.proofsFail, err, "/ct/v1/get-proof-by-hash?hash="+
		url.QueryEscape(base64.StdEncoding.EncodeToString(lh[:]))+fmt.Sprintf("&tree_size=%d", size))
	_, err = l.GetConsistencyProof(3, size)
	expect("consistency from inside tile 0", row.proofsFail, err, fmt.Sprintf("/ct/v1/get-sth-consistency?first=3&second=%d", size))
	// The damage is confined to its tile: the next tile and the
	// resident tail keep serving.
	entries("get-entries of tile 1", 4, 7, false)
	entries("get-entries of the tail", 8, size-1, false)
}

// TestTiledConcurrentGetEntriesOwnBuffers pins that a sealed read's
// buffer belongs to its request alone: 8 goroutines run random
// get-entries over HTTP against a span-8 log whose page-cache budget is
// below one leaf tile (offsets pages churn, every sealed page is a
// ranged read into a pooled buffer), and every body must equal, byte for
// byte, the get-entries encoding of the submitted leaves it claims —
// so a pooled buffer handed out again before its page was written, or
// shared by two requests, fails it. Run it under -race.
func TestTiledConcurrentGetEntriesOwnBuffers(t *testing.T) {
	const span, goroutines, reads = 8, 8, 60
	l, clk := newDurableLog(t, t.TempDir(), Config{TileSpan: span, PageCacheBytes: 64})
	defer l.Close()
	sth := fillAndPublish(t, l, clk, "own-buffers-with-a-longer-name", 6*span+5)
	size := sth.TreeHead.TreeSize
	want := collectLeaves(t, l, size)
	if got := l.TiledThrough(); got != 6*span {
		t.Fatalf("tiled through %d, want %d", got, 6*span)
	}
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < reads; i++ {
				start := uint64(rng.Intn(int(size)))
				end := start + uint64(rng.Intn(2*span))
				resp, err := http.Get(fmt.Sprintf("%s/ct/v1/get-entries?start=%d&end=%d", srv.URL, start, end))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("get-entries [%d, %d]: status %d, err %v", start, end, resp.StatusCode, err)
					return
				}
				var page GetEntriesResponse
				if err := json.Unmarshal(body, &page); err != nil {
					t.Errorf("get-entries [%d, %d]: %v", start, end, err)
					return
				}
				n := uint64(len(page.Entries))
				if n == 0 || start+n > size || start+n > end+1 || (start < 6*span && start+n > start/span*span+span) {
					t.Errorf("get-entries [%d, %d]: %d entries", start, end, n)
					return
				}
				rec := httptest.NewRecorder()
				writeLeaves(rec, want[start:start+n])
				if !bytes.Equal(body, rec.Body.Bytes()) {
					t.Errorf("get-entries [%d, %d]: body differs from the submitted leaves", start, end)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTiledPageInChecksOnce is the count ratchet for the cold read path:
// with a pass-through cache every read is a page-in and every page-in a
// counted miss, so the misses one GetEntries costs say exactly which
// files it read. A tile sealed by this process costs one (the leaf
// file) from the start; after a reopen a tile's first page-in costs two
// (leaf + hash: the cross-check) and every later one costs one. Eight
// readers racing the first touches of a reopened tile are all served when
// the tile is good, and none is ever served when it is forged.
func TestTiledPageInChecksOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{TileSpan: 4, PageCacheBytes: -1}
	l, clk := newDurableLog(t, dir, cfg)
	fillAndPublish(t, l, clk, "once", 9)
	misses := func(l *Log, start uint64) uint64 {
		t.Helper()
		before := l.CacheStats().Misses
		if _, err := l.GetEntries(start, start+3); err != nil {
			t.Fatal(err)
		}
		return l.CacheStats().Misses - before
	}
	for read := 0; read < 3; read++ {
		for _, start := range []uint64{0, 4} {
			if got := misses(l, start); got != 1 {
				t.Fatalf("read %d of entries %d.. on the sealing process: %d page-ins, want 1 (leaf only)", read, start, got)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, _ = newDurableLog(t, dir, cfg)
	for _, start := range []uint64{0, 4} {
		for read, want := range []uint64{2, 1, 1} {
			if got := misses(l, start); got != want {
				t.Fatalf("read %d of entries %d.. after reopen: %d page-ins, want %d", read, start, got, want)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Concurrent first touches of one unchecked tile. Each reader either
	// runs the cross-check itself or starts after another's has passed —
	// so with a good tile everyone is served and the check runs at least
	// once and at most once per reader; with a forged (CRC-valid, wrong)
	// tile nobody is ever served, however the readers interleave.
	const readers, rounds = 8, 4
	race := func(l *Log, wantErr bool) {
		t.Helper()
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := l.GetEntries(0, 3); !corruptOrServed(err, wantErr) {
						t.Errorf("concurrent first touch: err=%v, want corrupt=%v", err, wantErr)
					}
				}
			}()
		}
		wg.Wait()
	}
	l, _ = newDurableLog(t, dir, cfg)
	before := l.CacheStats().Misses
	race(l, false)
	if got := l.CacheStats().Misses - before; got < readers*rounds+1 || got > readers*rounds+readers {
		t.Fatalf("%d concurrent reads of a good tile cost %d page-ins, want %d leaf reads + 1..%d cross-checks",
			readers*rounds, got, readers*rounds, readers)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	forgeLeafTile(t, dir, 0)
	l, _ = newDurableLog(t, dir, cfg)
	defer l.Close()
	race(l, true)
	if l.tiles.isChecked(0) {
		t.Fatal("a failed cross-check marked the tile checked")
	}
}

// TestTiledColdCachePassThrough pins the PageCacheBytes<0 contract used
// by the cold benchmarks: every sealed read pages in from disk, and the
// cache retains nothing.
func TestTiledColdCachePassThrough(t *testing.T) {
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: 4, PageCacheBytes: -1})
	defer l.Close()
	fillAndPublish(t, l, clk, "cold", 8)
	for i := 0; i < 3; i++ {
		if _, err := l.GetEntries(0, 3); err != nil {
			t.Fatal(err)
		}
	}
	s := l.CacheStats()
	if s.Pages != 0 || s.Used != 0 {
		t.Fatalf("pass-through cache retained %d pages / %d bytes", s.Pages, s.Used)
	}
	if s.Hits != 0 {
		t.Fatalf("pass-through cache reported %d hits", s.Hits)
	}
}

// TestTiledSealCachesNothing pins that a seal's read-back leaves nothing
// in the page cache: a write-only log seals tile after tile under the
// default budget and the cache is never touched, and the first reads of
// a freshly sealed tile then cost exactly the files they need.
func TestTiledSealCachesNothing(t *testing.T) {
	l, clk := newDurableLog(t, t.TempDir(), Config{TileSpan: 4})
	defer l.Close()
	// The first round seals tiles 0 and 1 at its publish, so none of its
	// adds can probe a sealed bloom. The second round's adds probe tiles 0
	// and 1's id blooms before sealing tiles 2 and 3; with these fixed
	// inputs none of those probes is a bloom false positive (≈ 0.24 %
	// each), so no dedupe lookup pages in an index and any page in the
	// cache would be a seal's.
	fillAndPublish(t, l, clk, "nocache-a", 9)
	fillAndPublish(t, l, clk, "nocache-b", 7)
	if got := l.TiledThrough(); got != 16 {
		t.Fatalf("tiled through %d, want 16 (four tiles)", got)
	}
	if s := l.CacheStats(); s != (storage.PageCacheStats{}) {
		t.Fatalf("sealing four tiles left the page cache at %+v, want it untouched", s)
	}

	misses := func(what string, read func() error) uint64 {
		t.Helper()
		before := l.CacheStats().Misses
		if err := read(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return l.CacheStats().Misses - before
	}
	var page []*Entry
	getTile3 := func() (err error) {
		page, err = l.GetEntries(12, 15)
		return err
	}
	// The seal checked tile 3, so its first get-entries reads the leaf
	// file only, and its second is a hit.
	for read, want := range []uint64{1, 0} {
		if got := misses("get-entries of tile 3", getTile3); got != want {
			t.Fatalf("get-entries %d of a freshly sealed tile: %d page-ins, want %d", read, got, want)
		}
	}
	// A proof by hash into tile 3 reads the .hash its leaf-hash lookup
	// searches and its audit path needs — nothing else.
	lh, err := page[1].LeafHash()
	if err != nil {
		t.Fatal(err)
	}
	if got := misses("proof by hash into tile 3", func() error {
		_, _, err := l.GetProofByHash(lh, 16)
		return err
	}); got != 1 {
		t.Fatalf("first proof by hash into a freshly sealed tile: %d page-ins, want 1 (.hash)", got)
	}
	// An inclusion proof by index into tile 1 reads its hash tile only.
	if got := misses("inclusion proof into tile 1", func() error {
		_, err := l.pub.Load().tree.InclusionProof(5, 16)
		return err
	}); got != 1 {
		t.Fatalf("first inclusion proof into a freshly sealed tile: %d page-ins, want 1 (.hash)", got)
	}
}

// writeTileFixture writes one well-formed tile of distinct leaves with
// Store.WriteTile, as a seal writes it, without registering it. It
// returns the images written, which a seal's verify compares the files
// against.
func writeTileFixture(t *testing.T, l *Log, tile uint64, prefix string) tileImages {
	t.Helper()
	span := l.tiles.span
	leaves := make([][]byte, span)
	leafHashes := make([][32]byte, span)
	idHashes := make([][32]byte, span)
	for i := range leaves {
		e := Entry{Timestamp: uint64(1000 + i), Type: sct.X509LogEntryType, Cert: []byte(fmt.Sprintf("%s-%d", prefix, i))}
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = leaf
		leafHashes[i] = [32]byte(merkle.HashLeaf(leaf))
		idHashes[i] = [32]byte(entryIdentity(sct.X509Entry(e.Cert)))
	}
	ht, err := storage.BuildHashTile(tile, leafHashes)
	if err != nil {
		t.Fatal(err)
	}
	im := tileImages{
		leaf:  storage.EncodeLeafTile(nil, &storage.LeafTile{Tile: tile, Span: span, Leaves: leaves}),
		hash:  storage.EncodeHashTile(ht),
		index: storage.EncodeTileIndex(storage.BuildTileIndex(tile, tile*span, idHashes, leafHashes)),
	}
	if err := l.store.WriteTile(tile, im.leaf, im.hash, im.index); err != nil {
		t.Fatal(err)
	}
	return im
}

// TestTiledVerifyChecksDisk drives the seal's read-back, tileStore.verify,
// directly on tile files written the way a seal writes them, one kind of
// damage per row. Every row must fail with the right error class naming
// the tile and file (or, for the good tile, pass), leave the tile
// unregistered, and leave the page cache untouched. The rows flip, swap,
// forge and remove files. verify decodes nothing and cross-checks
// nothing: it requires each of the three files on disk to equal byte for
// byte the image the seal wrote, whose hash tile was built from the
// stamped leaf hashes and root-pinned before the write.
func TestTiledVerifyChecksDisk(t *testing.T) {
	copyFrom1 := func(ext string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			data, err := os.ReadFile(tilePath(dir, 1, ext))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(tilePath(dir, 0, ext), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	type row struct {
		name   string
		damage func(t *testing.T, dir string) // nil: the files stay as written
		ext    string                         // the damaged file, which the error must name
		want   error                          // nil: verify passes
	}
	rows := []row{
		{name: "good tile"},
		{name: "CRC-valid forged .leaf", damage: func(t *testing.T, dir string) { forgeLeafTile(t, dir, 0) },
			ext: storage.TileExtLeaf, want: storage.ErrCorrupt},
		{name: "CRC-valid .idx with a misshapen bloom", damage: func(t *testing.T, dir string) { reshapeIndexBloom(t, dir, 0) },
			ext: storage.TileExtIndex, want: storage.ErrCorrupt},
	}
	for _, ext := range []string{storage.TileExtLeaf, storage.TileExtHash, storage.TileExtIndex} {
		rows = append(rows,
			row{name: "byte flip in ." + ext, damage: func(t *testing.T, dir string) { flipTileByte(t, dir, 0, ext) },
				ext: ext, want: storage.ErrCorrupt},
			row{name: "tile 1's ." + ext + " over tile 0's", damage: copyFrom1(ext),
				ext: ext, want: storage.ErrCorrupt},
			row{name: "missing ." + ext, damage: func(t *testing.T, dir string) {
				if err := os.Remove(tilePath(dir, 0, ext)); err != nil {
					t.Fatal(err)
				}
			}, ext: ext, want: ErrPersistence},
		)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := newDurableLog(t, dir, Config{TileSpan: 4})
			defer l.Close()
			im := writeTileFixture(t, l, 0, "verify-0")
			writeTileFixture(t, l, 1, "verify-1")
			if r.damage != nil {
				r.damage(t, dir)
			}
			err := l.tiles.verify(0, im)
			switch {
			case r.want == nil && err != nil:
				t.Fatalf("verify of a good tile: %v", err)
			case r.want != nil && !errors.Is(err, r.want):
				t.Fatalf("verify: err=%v, want %v", err, r.want)
			case r.want != nil && !strings.Contains(err.Error(), "tile 0."+r.ext):
				t.Fatalf("verify: err=%v, want it to name tile 0.%s", err, r.ext)
			}
			if n := l.tiles.sealedTiles(); n != 0 {
				t.Fatalf("verify registered %d tiles", n)
			}
			if s := l.CacheStats(); s != (storage.PageCacheStats{}) {
				t.Fatalf("verify touched the page cache: %+v", s)
			}
		})
	}
}

// TestTiledVerifyRetryRereadsDisk is the regression for a retried seal:
// verify passes on a good tile, the tile's .hash file is then damaged
// (as a failed seal's rewrite might leave it), and a second verify must
// fail. A read-back through the page cache would have been served the
// first call's page and passed.
func TestTiledVerifyRetryRereadsDisk(t *testing.T) {
	dir := t.TempDir()
	l, _ := newDurableLog(t, dir, Config{TileSpan: 4})
	defer l.Close()
	im := writeTileFixture(t, l, 0, "retry")
	if err := l.tiles.verify(0, im); err != nil {
		t.Fatal(err)
	}
	flipTileByte(t, dir, 0, storage.TileExtHash)
	if err := l.tiles.verify(0, im); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("second verify after the .hash file changed: err=%v, want ErrCorrupt", err)
	}
}

// TestTiledSealWriteFailureIsSticky makes a seal's tile write fail for
// real: the tiles directory is replaced by a regular file before the
// publish that would seal tile 0. The publish returns ErrPersistence
// with nothing registered and the sealed prefix unchanged; reads keep
// answering from the resident tail; the store's failure is sticky, so
// the next add-chain is a 503 with Retry-After and /metrics reads
// ctlog_store_failed 1. With the directory restored, a reopen serves the
// same head and its next publish seals the tile.
func TestTiledSealWriteFailureIsSticky(t *testing.T) {
	const span = 4
	dir := t.TempDir()
	l, clk := newDurableLog(t, dir, Config{TileSpan: span})
	fillAndPublish(t, l, clk, "sticky-seal", 2)
	tilesDir := filepath.Join(dir, storage.TilesDirName)
	if err := os.Remove(tilesDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tilesDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < span+2; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("sticky-seal-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); !errors.Is(err, ErrPersistence) {
		t.Fatalf("sealing publish over a file named tiles: err=%v, want ErrPersistence", err)
	}
	if n := l.tiles.sealedTiles(); n != 0 {
		t.Fatalf("a failed seal registered %d tiles", n)
	}
	if got := l.TiledThrough(); got != 0 {
		t.Fatalf("TiledThrough = %d after a failed seal, want 0", got)
	}
	head := l.STH()
	if head.TreeHead.TreeSize != span+2 {
		t.Fatalf("published head covers %d entries, want %d", head.TreeHead.TreeSize, span+2)
	}
	want := collectLeaves(t, l, span+2)
	if _, err := l.pub.Load().tree.InclusionProof(1, span+2); err != nil {
		t.Fatalf("inclusion proof from the tail: %v", err)
	}

	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	if resp := get(t, srv, fmt.Sprintf("/ct/v1/get-entries?start=0&end=%d", span+1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("get-entries after the failed seal: status %d, want 200", resp.StatusCode)
	}
	resp := post(t, srv, "/ct/v1/add-chain", `{"chain":["c3RpY2t5"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add-chain after the failed seal: status %d, want 503", resp.StatusCode)
	}
	// No sequencer runs, so the hint is drain.Refuse's 1 s floor.
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("add-chain 503 Retry-After = %q, want %q", got, "1")
	}
	wantSamples(t, l, map[string]string{"ctlog_store_failed": "1", "ctlog_sealed_entries": "0"})
	l.Close() // refuses the closing snapshot: the store has failed

	if err := os.Remove(tilesDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(tilesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	r, _ := newDurableLog(t, dir, Config{TileSpan: span})
	defer r.Close()
	if got := r.STH(); got.TreeHead != head.TreeHead {
		t.Fatalf("reopened head %+v, want %+v", got.TreeHead, head.TreeHead)
	}
	if _, err := r.PublishSTH(); err != nil {
		t.Fatalf("publish after the directory came back: %v", err)
	}
	if got := r.TiledThrough(); got != span {
		t.Fatalf("TiledThrough = %d after the retried seal, want %d", got, span)
	}
	if got := collectLeaves(t, r, span+2); !reflect.DeepEqual(got, want) {
		t.Fatal("entries after the retried seal differ from the tail's")
	}
}

// TestTiledConcurrentSealFailureIsSticky makes one tile of a concurrent
// seal fail: one publish covers tiles 0-5 of a span-4 log, sealed by
// four workers, and a directory squats at tile 2's .leaf path, so that
// tile's rename fails while the workers beside it write theirs. The
// publish returns ErrPersistence and registers no tile, not even tiles
// 0 and 1; reads keep answering from the resident tail; the store's
// failure is sticky, so add-chain is a 503 with Retry-After. With the
// squatter removed, a reopen seals all six tiles into files
// byte-identical to those of a run that never failed.
func TestTiledConcurrentSealFailureIsSticky(t *testing.T) {
	const span, tiles, bad = 4, 6, 2
	const size = span*tiles + 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fill := func(dir string) *Log {
		l, clk := newDurableLog(t, dir, Config{TileSpan: span})
		for i := 0; i < size; i++ {
			if _, err := l.AddChain([]byte(fmt.Sprintf("concurrent-seal-%04d", i))); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Second)
		}
		return l
	}
	cleanDir := t.TempDir()
	clean := fill(cleanDir)
	if _, err := clean.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if got := clean.sealWorkers; got != 4 {
		t.Fatalf("a seal of %d tiles at GOMAXPROCS 4 ran %d workers, want 4", tiles, got)
	}
	clean.Close()

	dir := t.TempDir()
	l := fill(dir)
	squatter := tilePath(dir, bad, storage.TileExtLeaf)
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); !errors.Is(err, ErrPersistence) {
		t.Fatalf("seal with a directory at tile %d's .leaf path: err=%v, want ErrPersistence", bad, err)
	}
	if n := l.tiles.sealedTiles(); n != 0 {
		t.Fatalf("a failed concurrent seal registered %d tiles", n)
	}
	if got := l.TiledThrough(); got != 0 {
		t.Fatalf("TiledThrough = %d after a failed seal, want 0", got)
	}
	head := l.STH()
	if head.TreeHead.TreeSize != size {
		t.Fatalf("published head covers %d entries, want %d", head.TreeHead.TreeSize, size)
	}
	want := collectLeaves(t, l, size)
	if _, err := l.pub.Load().tree.InclusionProof(bad*span+1, size); err != nil {
		t.Fatalf("inclusion proof into the failed tile, from the tail: %v", err)
	}
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	if resp := get(t, srv, fmt.Sprintf("/ct/v1/get-entries?start=0&end=%d", size-1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("get-entries after the failed seal: status %d, want 200", resp.StatusCode)
	}
	resp := post(t, srv, "/ct/v1/add-chain", `{"chain":["c3RpY2t5"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add-chain after the failed seal: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("add-chain 503 Retry-After = %q, want %q", got, "1")
	}
	wantSamples(t, l, map[string]string{"ctlog_store_failed": "1", "ctlog_sealed_entries": "0"})
	l.Close() // refuses the closing snapshot: the store has failed

	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	r, _ := newDurableLog(t, dir, Config{TileSpan: span})
	defer r.Close()
	if got := r.STH(); got.TreeHead != head.TreeHead {
		t.Fatalf("reopened head %+v, want %+v", got.TreeHead, head.TreeHead)
	}
	if _, err := r.PublishSTH(); err != nil {
		t.Fatalf("publish after the squatter left: %v", err)
	}
	if got := r.TiledThrough(); got != span*tiles {
		t.Fatalf("TiledThrough = %d after the retried seal, want %d", got, span*tiles)
	}
	if got := collectLeaves(t, r, size); !reflect.DeepEqual(got, want) {
		t.Fatal("entries after the retried seal differ from the tail's")
	}
	for tile := uint64(0); tile < tiles; tile++ {
		for _, ext := range []string{storage.TileExtLeaf, storage.TileExtHash, storage.TileExtIndex} {
			got, err := os.ReadFile(tilePath(dir, tile, ext))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(tilePath(cleanDir, tile, ext))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("tile %d.%s after the retried seal differs from the clean run's", tile, ext)
			}
		}
	}
}

// TestTiledSealWorkersByteIdentical builds one seeded span-16 log twice,
// under GOMAXPROCS 1 and 4, so its seals run on one worker and on four.
// The second publish covers 10 tiles, more than the workers. Tile roots
// must register in tile order (each equal to a reference tree's), and
// the tiles directory and snapshot.ct must come out byte-identical. CI
// runs it with -race -count=5, so the workers race on their tiles under
// the detector.
func TestTiledSealWorkersByteIdentical(t *testing.T) {
	const span = 16
	build := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		l, clk := newDurableLog(t, dir, Config{TileSpan: span})
		rng := rand.New(rand.NewSource(2018))
		add := func(n int) {
			for i := 0; i < n; i++ {
				cert := make([]byte, 16+rng.Intn(200))
				rng.Read(cert)
				if _, err := l.AddChain(cert); err != nil {
					t.Fatal(err)
				}
				clk.Advance(time.Duration(1+rng.Intn(1000)) * time.Millisecond)
			}
			if _, err := l.PublishSTH(); err != nil {
				t.Fatal(err)
			}
		}
		add(3*span + 5)
		add(10*span + 2)
		if got, want := l.sealWorkers, min(10, procs); got != want {
			t.Fatalf("GOMAXPROCS %d: %d seal workers, want %d", procs, got, want)
		}
		size := l.STH().TreeHead.TreeSize
		ref, err := merkle.NewTiled(span, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range collectLeaves(t, l, size) {
			ref.AppendLeafHash(merkle.HashLeaf(leaf))
		}
		sealed := l.tiles.sealedTiles()
		if sealed != size/span {
			t.Fatalf("GOMAXPROCS %d: %d tiles sealed, want %d", procs, sealed, size/span)
		}
		for tile := uint64(0); tile < sealed; tile++ {
			want, err := ref.TileRoot(tile)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := l.tiles.rootAt(tile); got != want {
				t.Fatalf("GOMAXPROCS %d: tile %d registered root %x, want %x", procs, tile, got, want)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	one, four := build(1), build(4)
	names, err := os.ReadDir(filepath.Join(one, storage.TilesDirName))
	if err != nil {
		t.Fatal(err)
	}
	files := []string{storage.SnapshotName}
	for _, n := range names {
		files = append(files, filepath.Join(storage.TilesDirName, n.Name()))
	}
	if got, err := os.ReadDir(filepath.Join(four, storage.TilesDirName)); err != nil || len(got) != len(names) {
		t.Fatalf("tiles directories hold %d and %d files (%v)", len(names), len(got), err)
	}
	for _, name := range files {
		a, err := os.ReadFile(filepath.Join(one, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(four, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between one seal worker and four", name)
		}
	}
}

// TestTiledAcrossBloomBlocks drives a span-2 log to 160 sealed tiles, so
// its bit-sliced blooms fill two 64-tile blocks and start a third, and
// checks every lookup that probes them at the block edges: resubmitting
// the identities of tiles 0, 63, 64, 65 and the last answers with the
// original timestamps, and get-proof-by-hash finds and proves the same
// leaves — before and after a reopen. One seal is parked after it
// registered tiles 60–69, across the edge at 64: the add path's locked
// re-probe of [sealedAt, now) must find exactly the identities of those
// tiles, and a duplicate submitted meanwhile keeps its timestamp. A
// CRC-valid index with a misshapen bloom then fails the next Open.
func TestTiledAcrossBloomBlocks(t *testing.T) {
	const span, tiles, parkFrom, parkTo = 2, 160, 60, 70
	dir := t.TempDir()
	cfg := Config{TileSpan: span, Sync: SyncAtSequence}
	l, clk := newDurableLog(t, dir, cfg)
	certOf := func(i int) []byte { return []byte(fmt.Sprintf("block-edge-%04d", i)) }
	var orig []uint64 // SCT timestamp of entry i
	add := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			s, err := l.AddChain(certOf(len(orig)))
			if err != nil {
				t.Fatal(err)
			}
			orig = append(orig, s.Timestamp)
			clk.Advance(time.Second)
		}
	}
	add(parkFrom * span)
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}

	add((parkTo - parkFrom) * span)
	parked, release := make(chan struct{}), make(chan struct{})
	releaseSeal := sync.OnceFunc(func() { close(release) })
	defer releaseSeal() // before Close, which waits for the seal
	l.sealStageHook = func(stage string) {
		if stage == "tiles-written" {
			close(parked)
			<-release
		}
	}
	pubDone := make(chan error, 1)
	go func() {
		_, err := l.PublishSTH()
		pubDone <- err
	}()
	<-parked
	now := l.tiles.sealedTiles()
	if now != parkTo {
		t.Fatalf("%d tiles registered at the parked seal, want %d", now, parkTo)
	}
	for i := range orig {
		se, err := l.tiles.lookupID(entryIdentity(sct.X509Entry(certOf(i))), parkFrom, now)
		if err != nil {
			t.Fatal(err)
		}
		if inRange := i/span >= parkFrom; (se != nil) != inRange || (se != nil && se.Index != uint64(i)) {
			t.Fatalf("re-probe of tiles [%d, %d) for entry %d (tile %d): got %+v", parkFrom, now, i, i/span, se)
		}
	}
	if s, err := l.AddChain(certOf(64 * span)); err != nil || s.Timestamp != orig[64*span] {
		t.Fatalf("duplicate of tile 64 during its seal: %v, want timestamp %d", err, orig[64*span])
	}
	releaseSeal()
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}
	l.sealStageHook = nil

	add((tiles-parkTo)*span + 1) // and one entry in the resident tail
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if got := l.TiledThrough(); got != tiles*span {
		t.Fatalf("tiled through %d, want %d", got, tiles*span)
	}
	check := func(l *Log, clk *virtualClock) {
		t.Helper()
		clk.Advance(time.Hour)
		sth := l.STH()
		for _, tile := range []int{0, 63, 64, 65, tiles - 1} {
			for i := tile * span; i < (tile+1)*span; i++ {
				s, err := l.AddChain(certOf(i))
				if err != nil || s.Timestamp != orig[i] {
					t.Fatalf("resubmitting entry %d (tile %d): %v, timestamp %d, want %d", i, tile, err, s.Timestamp, orig[i])
				}
				ents, err := l.GetEntries(uint64(i), uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				lh, err := ents[0].LeafHash()
				if err != nil {
					t.Fatal(err)
				}
				idx, proof, err := l.GetProofByHash(lh, sth.TreeHead.TreeSize)
				if err != nil || idx != uint64(i) {
					t.Fatalf("proof by hash for entry %d (tile %d): index %d, %v", i, tile, idx, err)
				}
				if err := verifyInclusionForTest(lh, idx, sth, proof); err != nil {
					t.Fatalf("entry %d: %v", i, err)
				}
			}
		}
		if n := l.PendingCount(); n != 0 {
			t.Fatalf("resubmissions staged %d new entries", n)
		}
	}
	check(l, clk)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, clk = newDurableLog(t, dir, cfg)
	check(l, clk)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reshapeIndexBloom(t, dir, 64)
	cfg.Signer, cfg.Clock = sct.NewFastSigner("durable-test-log"), newClock().Now
	if l, err := Open(dir, cfg); !errors.Is(err, storage.ErrCorrupt) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("Open over a misshapen index bloom: err=%v, want ErrCorrupt", err)
	}
}
