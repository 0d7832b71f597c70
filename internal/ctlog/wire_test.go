package ctlog_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// The differential wire oracle for get-entries: whatever
// ctlog.WriteGetEntries puts on the wire must be, byte for byte, what
// encoding/json produces for the GetEntriesResponse built from each
// entry's field-encoded MerkleTreeLeaf — the encoder the handler used
// before pages became a sized append of the log's stamped leaf bytes —
// and must parse back through ctclient to the same entries.

// referenceBody is the oracle: every leaf re-encoded from the entry's
// fields, base64 strings, encoding/json.
func referenceBody(t testing.TB, entries []*ctlog.Entry) []byte {
	t.Helper()
	resp := ctlog.GetEntriesResponse{Entries: make([]ctlog.LeafEntry, 0, len(entries))}
	for _, e := range entries {
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			t.Fatal(err)
		}
		resp.Entries = append(resp.Entries, ctlog.LeafEntry{LeafInput: base64.StdEncoding.EncodeToString(leaf)})
	}
	return encodeJSON(t, resp)
}

// encodeJSON is what json.NewEncoder(w).Encode writes for v.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkResponse compares one recorded get-entries response with the
// oracle's body for entries.
func checkResponse(t testing.TB, what string, rec *httptest.ResponseRecorder, entries []*ctlog.Entry) {
	t.Helper()
	checkBody(t, what, rec, referenceBody(t, entries))
}

// checkBody compares one recorded response with want: a 200 carrying
// exactly those bytes, as JSON, with its Content-Length.
func checkBody(t testing.TB, what string, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from encoding/json (%d vs %d bytes)\n got: %.120s\nwant: %.120s", what, len(got), len(want), got, want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Errorf("%s: Content-Length = %q, body is %d bytes", what, got, len(want))
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("%s: Content-Type = %q", what, got)
	}
}

// checkWriter runs entries through WriteGetEntries alone.
func checkWriter(t testing.TB, what string, entries []*ctlog.Entry) {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := ctlog.WriteGetEntries(rec, entries); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkResponse(t, what, rec, entries)
}

// pageServer serves whatever page was last set, through WriteGetEntries,
// so pages that never lived in a log can still round-trip through
// ctclient.
type pageServer struct {
	mu   sync.Mutex
	page []*ctlog.Entry
	srv  *httptest.Server
}

func newPageServer(t testing.TB) *pageServer {
	ps := &pageServer{}
	ps.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ps.mu.Lock()
		page := ps.page
		ps.mu.Unlock()
		if err := ctlog.WriteGetEntries(w, page); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))
	t.Cleanup(ps.srv.Close)
	return ps
}

// roundTrip fetches the page through ctclient and compares every field
// the wire carries.
func (ps *pageServer) roundTrip(t testing.TB, what string, page []*ctlog.Entry) {
	t.Helper()
	ps.mu.Lock()
	ps.page = page
	ps.mu.Unlock()
	checkClientPage(t, what, ps.srv.URL, 0, page)
}

// checkClientPage fetches len(want) entries from start at baseURL
// through ctclient.GetEntries and compares them with want.
func checkClientPage(t testing.TB, what, baseURL string, start uint64, want []*ctlog.Entry) {
	t.Helper()
	if len(want) == 0 {
		return
	}
	got, err := ctclient.New(baseURL, nil).GetEntries(context.Background(), start, start+uint64(len(want))-1)
	if err != nil {
		t.Fatalf("%s: ctclient: %v", what, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: ctclient parsed %d entries, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Index != start+uint64(i) || g.Timestamp != w.Timestamp || g.Type != w.Type || g.IssuerKeyHash != w.IssuerKeyHash ||
			!bytes.Equal(g.Cert, w.Cert) || !bytes.Equal(g.Extensions, w.Extensions) {
			t.Fatalf("%s: entry %d does not round-trip through ctclient", what, i)
		}
	}
}

// randomEntry builds an entry from fields alone (no stamped bytes):
// either type, any certificate length up to maxCert, and extensions on
// about half of them.
func randomEntry(rng *rand.Rand, maxCert int) *ctlog.Entry {
	e := &ctlog.Entry{Timestamp: rng.Uint64(), Type: sct.X509LogEntryType, Cert: make([]byte, rng.Intn(maxCert+1))}
	rng.Read(e.Cert)
	if rng.Intn(2) == 0 {
		e.Type = sct.PrecertLogEntryType
		rng.Read(e.IssuerKeyHash[:])
	}
	if rng.Intn(2) == 0 {
		e.Extensions = make([]byte, 1+rng.Intn(40))
		rng.Read(e.Extensions)
	}
	return e
}

// randomPage builds n entries three ways at once: fields only, parsed
// from their leaf (so they carry stamped bytes, as tile page-in, recovery
// and clients produce them), and struct copies of the parsed ones with
// the certificate changed — which must encode the changed fields, not
// the bytes stamped on the original.
func randomPage(t testing.TB, rng *rand.Rand, n, maxCert int) (fields, parsed, tampered []*ctlog.Entry) {
	t.Helper()
	fields = make([]*ctlog.Entry, n)
	parsed = make([]*ctlog.Entry, n)
	tampered = make([]*ctlog.Entry, n)
	for i := range fields {
		e := randomEntry(rng, maxCert)
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			t.Fatal(err)
		}
		p, err := ctlog.ParseMerkleTreeLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		c := *p
		c.Cert = append(bytes.Clone(p.Cert), 0xa5)
		fields[i], parsed[i], tampered[i] = e, p, &c
	}
	return fields, parsed, tampered
}

// leafShapes records which leaf-length residues (base64 padding cases),
// entry types and extension states a test has pushed through the writer,
// so coverage is asserted rather than assumed.
type leafShapes struct {
	mod3          [3]bool
	x509, precert bool
	ext, noExt    bool
}

func (s *leafShapes) add(t testing.TB, entries []*ctlog.Entry) {
	t.Helper()
	for _, e := range entries {
		leaf, err := e.MerkleTreeLeaf()
		if err != nil {
			t.Fatal(err)
		}
		s.mod3[len(leaf)%3] = true
		if e.Type == sct.PrecertLogEntryType {
			s.precert = true
		} else {
			s.x509 = true
		}
		if len(e.Extensions) > 0 {
			s.ext = true
		} else {
			s.noExt = true
		}
	}
}

func TestGetEntriesWireIdentical(t *testing.T) {
	t.Run("random pages", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		ps := newPageServer(t)
		var shapes leafShapes
		for _, n := range []int{0, 1, 2, 3, 256, 1000} {
			fields, parsed, tampered := randomPage(t, rng, n, 300)
			shapes.add(t, fields)
			for what, page := range map[string][]*ctlog.Entry{"fields": fields, "parsed": parsed, "tampered": tampered} {
				what = fmt.Sprintf("%s page of %d", what, n)
				checkWriter(t, what, page)
				ps.roundTrip(t, what, page)
			}
		}
		if shapes != (leafShapes{mod3: [3]bool{true, true, true}, x509: true, precert: true, ext: true, noExt: true}) {
			t.Fatalf("random pages did not cover every leaf shape: %+v", shapes)
		}
	})

	// The same comparison on entries a log stamped itself: staged by add
	// (in-memory log and the durable log's resident tail), paged in from
	// sealed tiles, and — after a reopen — rebuilt by snapshot/WAL
	// recovery. Pages of 1, 256 and MaxGetEntries in each place.
	const span, maxPage, sealed, tail = 512, 384, 2 * 512, 400
	cfg := func() ctlog.Config {
		return ctlog.Config{
			Name: "wire log", Signer: sct.NewFastSigner("wire log"),
			MaxGetEntries: maxPage, TileSpan: span, Sync: ctlog.SyncAtSequence,
		}
	}
	// add stages no extensions, so a log covers every shape but that one.
	logShapes := leafShapes{mod3: [3]bool{true, true, true}, x509: true, precert: true, noExt: true}
	fill := func(t *testing.T, l *ctlog.Log) {
		t.Helper()
		rng := rand.New(rand.NewSource(6962))
		for i := 0; i < sealed+tail; i++ {
			e := randomEntry(rng, 1200)
			var err error
			if e.Type == sct.PrecertLogEntryType {
				_, err = l.AddPreChain(e.IssuerKeyHash, e.Cert)
			} else {
				_, err = l.AddChain(e.Cert)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Fatal(err)
		}
	}
	// checkLog serves pages of every size from each start through the
	// real handler and through ctclient, and returns the bodies so a
	// reopened log can be held to the very same bytes.
	checkLog := func(t *testing.T, l *ctlog.Log, starts ...uint64) [][]byte {
		t.Helper()
		srv := httptest.NewServer(l.Handler())
		defer srv.Close()
		var shapes leafShapes
		var bodies [][]byte
		for _, start := range starts {
			for _, n := range []uint64{1, 256, maxPage} {
				what := fmt.Sprintf("start %d page of %d", start, n)
				entries, err := l.GetEntries(start, start+n-1)
				if err != nil {
					t.Fatal(err)
				}
				if uint64(len(entries)) != n {
					t.Fatalf("%s: log returned %d entries", what, len(entries))
				}
				shapes.add(t, entries)
				rec := httptest.NewRecorder()
				l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, start+n-1), nil))
				checkResponse(t, what, rec, entries)
				checkClientPage(t, what, srv.URL, start, entries)
				bodies = append(bodies, rec.Body.Bytes())
			}
		}
		if shapes != logShapes {
			t.Fatalf("log pages did not cover every leaf shape: %+v", shapes)
		}
		return bodies
	}

	t.Run("in-memory", func(t *testing.T) {
		l, err := ctlog.New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		fill(t, l)
		checkLog(t, l, 0, sealed)
	})

	t.Run("durable tail, sealed tiles, reopen", func(t *testing.T) {
		dir := t.TempDir()
		l, err := ctlog.Open(dir, cfg())
		if err != nil {
			t.Fatal(err)
		}
		fill(t, l)
		if got := l.TiledThrough(); got != sealed {
			t.Fatalf("sealed through %d, want %d", got, sealed)
		}
		// start 0 and span are sealed tiles (the second read of each is a
		// page-cache hit), start sealed is the resident tail.
		before := checkLog(t, l, 0, span, sealed)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = ctlog.Open(dir, cfg())
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		after := checkLog(t, l, 0, span, sealed)
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Fatalf("page %d served different bytes after reopen", i)
			}
		}
	})
}

// TestGetEntriesWireConcurrent serves pages from several goroutines at
// once while the log keeps sequencing, publishing and sealing tiles under
// them: the pooled page buffers are shared state, and a response must
// never carry another request's bytes. Run under -race in CI.
func TestGetEntriesWireConcurrent(t *testing.T) {
	l, err := ctlog.Open(t.TempDir(), ctlog.Config{
		Name: "wire log", Signer: sct.NewFastSigner("wire log"),
		TileSpan: 64, Sync: ctlog.SyncAtSequence,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(64))
	grow := func(n int) {
		for i := 0; i < n; i++ {
			cert := make([]byte, 16+rng.Intn(600))
			rng.Read(cert)
			if _, err := l.AddChain(cert); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := l.PublishSTH(); err != nil {
			t.Error(err)
		}
	}
	grow(200)
	h := l.Handler()
	type served struct {
		start uint64
		rec   *httptest.ResponseRecorder
	}
	pages := make([][]served, 4)
	var wg sync.WaitGroup
	for g := range pages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				start := uint64((g*37 + i*11) % 190)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, start+9), nil))
				pages[g] = append(pages[g], served{start, rec})
			}
		}()
	}
	for i := 0; i < 8; i++ {
		grow(40)
	}
	wg.Wait()
	// Whatever each page turned out to be (tile-clamped, sealed by then or
	// not), it is entries [start, start+n): compare it with the oracle's
	// encoding of that range now that everything has settled.
	for _, p := range pages {
		for _, s := range p {
			var got ctlog.GetEntriesResponse
			if err := json.Unmarshal(s.rec.Body.Bytes(), &got); err != nil || len(got.Entries) == 0 {
				t.Fatalf("start %d: status %d, %d entries, %v", s.start, s.rec.Code, len(got.Entries), err)
			}
			var want []*ctlog.Entry
			err := l.StreamEntries(s.start, s.start+uint64(len(got.Entries))-1, func(e *ctlog.Entry) error {
				want = append(want, e)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			checkResponse(t, fmt.Sprintf("concurrent page at %d", s.start), s.rec, want)
		}
	}
}

// FuzzGetEntriesWire holds random pages — size, certificate lengths and
// content all drawn from the fuzzed seed — to the same two checks:
// identical to encoding/json, and parsed back by ctclient. The seeds are
// the checked-in corpus under testdata/fuzz/FuzzGetEntriesWire.
func FuzzGetEntriesWire(f *testing.F) {
	ps := newPageServer(f)
	f.Fuzz(func(t *testing.T, seed int64, n, maxCert uint16) {
		rng := rand.New(rand.NewSource(seed))
		fields, parsed, tampered := randomPage(t, rng, int(n%1001), int(maxCert%4096))
		for what, page := range map[string][]*ctlog.Entry{"fields": fields, "parsed": parsed, "tampered": tampered} {
			checkWriter(t, what, page)
			ps.roundTrip(t, what, page)
		}
	})
}

// The same oracle for every other ct/v1 body: each writer must put on
// the wire what json.NewEncoder writes for its response struct, built
// the way the handlers built it before they had writers — every byte
// field a base64.StdEncoding string, every hash list a non-nil slice, so
// an empty one is [] and never null.

func hashStrings(hs []merkle.Hash) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = base64.StdEncoding.EncodeToString(h[:])
	}
	return out
}

func sthBody(t testing.TB, sth ctlog.SignedTreeHead) []byte {
	t.Helper()
	sig, err := sth.Sig.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return encodeJSON(t, ctlog.GetSTHResponse{
		TreeSize:          sth.TreeHead.TreeSize,
		Timestamp:         sth.TreeHead.Timestamp,
		SHA256RootHash:    base64.StdEncoding.EncodeToString(sth.TreeHead.RootHash[:]),
		TreeHeadSignature: base64.StdEncoding.EncodeToString(sig),
	})
}

func sctBody(t testing.TB, s *sct.SignedCertificateTimestamp) []byte {
	t.Helper()
	sig, err := s.Signature.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return encodeJSON(t, ctlog.AddChainResponse{
		SCTVersion: uint8(s.SCTVersion),
		ID:         base64.StdEncoding.EncodeToString(s.LogID[:]),
		Timestamp:  s.Timestamp,
		Extensions: base64.StdEncoding.EncodeToString(s.Extensions),
		Signature:  base64.StdEncoding.EncodeToString(sig),
	})
}

func proofBody(t testing.TB, index uint64, path []merkle.Hash) []byte {
	t.Helper()
	return encodeJSON(t, ctlog.GetProofByHashResponse{LeafIndex: index, AuditPath: hashStrings(path)})
}

func consistencyBody(t testing.TB, proof []merkle.Hash) []byte {
	t.Helper()
	return encodeJSON(t, ctlog.GetSTHConsistencyResponse{Consistency: hashStrings(proof)})
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randomHashes(rng *rand.Rand, n int) []merkle.Hash {
	hs := make([]merkle.Hash, n)
	for i := range hs {
		rng.Read(hs[i][:])
	}
	return hs
}

// TestResponseWireIdentical holds get-sth, get-sth-consistency,
// get-proof-by-hash, add-chain and add-pre-chain to the oracle: first
// the writers alone, over every base64 padding case, numbers from 0 to
// the largest uint64 and hash lists from empty to 64 long, then every
// handler on a live log — consistency for every first ≤ second
// (first == second is an empty proof), proof-by-hash for every leaf at
// every size, from the 1-leaf tree's empty path up.
func TestResponseWireIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	nums := []uint64{0, 1, 9, 10, 255, 1 << 32, 1<<64 - 1}
	t.Run("writers", func(t *testing.T) {
		for i, n := range []int{0, 1, 2, 3, 4, 5, 64, 71, 72, 73, 200} {
			num := nums[i%len(nums)]
			sig := sct.DigitallySigned{HashAlgorithm: uint8(i), SignatureAlgorithm: uint8(3 * i), Signature: randomBytes(rng, n)}
			sth := ctlog.SignedTreeHead{TreeHead: sct.TreeHead{TreeSize: num, Timestamp: nums[(i+3)%len(nums)]}, Sig: sig}
			rng.Read(sth.TreeHead.RootHash[:])
			rec := httptest.NewRecorder()
			if err := ctlog.WriteGetSTH(rec, sth); err != nil {
				t.Fatal(err)
			}
			checkBody(t, fmt.Sprintf("get-sth, %d-byte signature", n), rec, sthBody(t, sth))

			s := &sct.SignedCertificateTimestamp{SCTVersion: sct.Version(i), Timestamp: num, Extensions: randomBytes(rng, n/2), Signature: sig}
			rng.Read(s.LogID[:])
			rec = httptest.NewRecorder()
			if err := ctlog.WriteSCT(rec, s); err != nil {
				t.Fatal(err)
			}
			checkBody(t, fmt.Sprintf("SCT, %d-byte signature", n), rec, sctBody(t, s))
		}
		for n := 0; n <= 64; n++ {
			hs := randomHashes(rng, n)
			index := nums[n%len(nums)]
			rec := httptest.NewRecorder()
			ctlog.WriteGetProofByHash(rec, index, hs)
			checkBody(t, fmt.Sprintf("proof of %d hashes", n), rec, proofBody(t, index, hs))
			rec = httptest.NewRecorder()
			ctlog.WriteGetSTHConsistency(rec, hs)
			checkBody(t, fmt.Sprintf("consistency of %d hashes", n), rec, consistencyBody(t, hs))
		}
		rec := httptest.NewRecorder()
		ctlog.WriteGetProofByHash(rec, 0, nil)
		if got := rec.Body.String(); got != "{\"leaf_index\":0,\"audit_path\":[]}\n" {
			t.Fatalf("nil audit path wrote %q", got)
		}
	})

	t.Run("handlers", func(t *testing.T) {
		now := time.Date(2018, 4, 12, 14, 0, 0, 0, time.UTC)
		signer := sct.NewFastSigner("wire log")
		l, err := ctlog.New(ctlog.Config{Name: "wire log", Signer: signer, Clock: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		h := l.Handler()
		serve := func(method, target, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
			return rec
		}
		checkBody(t, "get-sth of the empty log", serve("GET", "/ct/v1/get-sth", ""), sthBody(t, l.STH()))
		var leafHashes []merkle.Hash
		const size = 9
		for i := 0; i < size; i++ {
			cert := []byte(fmt.Sprintf("wire-cert-%d", i))
			want, err := signer.CreateSCT(uint64(now.UnixMilli()), sct.X509Entry(cert))
			if err != nil {
				t.Fatal(err)
			}
			rec := serve("POST", "/ct/v1/add-chain", `{"chain":["`+base64.StdEncoding.EncodeToString(cert)+`"]}`)
			checkBody(t, "add-chain", rec, sctBody(t, want))

			var ikh [32]byte
			rng.Read(ikh[:])
			tbs := randomBytes(rng, 1+i)
			if want, err = signer.CreateSCT(uint64(now.UnixMilli()), sct.PrecertEntry(ikh, tbs)); err != nil {
				t.Fatal(err)
			}
			rec = serve("POST", "/ct/v1/add-pre-chain", `{"chain":["`+base64.StdEncoding.EncodeToString(tbs)+`","`+base64.StdEncoding.EncodeToString(ikh[:])+`"]}`)
			checkBody(t, "add-pre-chain", rec, sctBody(t, want))

			if _, err := l.PublishSTH(); err != nil {
				t.Fatal(err)
			}
			checkBody(t, "get-sth", serve("GET", "/ct/v1/get-sth", ""), sthBody(t, l.STH()))
			ents, err := l.GetEntries(uint64(2*i), uint64(2*i))
			if err != nil {
				t.Fatal(err)
			}
			lh, err := ents[0].LeafHash()
			if err != nil {
				t.Fatal(err)
			}
			leafHashes = append(leafHashes, lh)
			now = now.Add(time.Second)
		}
		treeSize := l.STH().TreeHead.TreeSize
		for first := uint64(1); first <= treeSize; first++ {
			for second := first; second <= treeSize; second++ {
				proof, err := l.GetConsistencyProof(first, second)
				if err != nil {
					t.Fatal(err)
				}
				checkBody(t, fmt.Sprintf("consistency %d → %d", first, second),
					serve("GET", fmt.Sprintf("/ct/v1/get-sth-consistency?first=%d&second=%d", first, second), ""),
					consistencyBody(t, proof))
			}
		}
		for i, lh := range leafHashes {
			for ts := uint64(2*i + 1); ts <= treeSize; ts++ {
				index, path, err := l.GetProofByHash(lh, ts)
				if err != nil {
					t.Fatal(err)
				}
				if ts == 1 && len(path) != 0 {
					t.Fatalf("1-leaf tree has a %d-hash audit path", len(path))
				}
				checkBody(t, fmt.Sprintf("proof of leaf %d at size %d", index, ts),
					serve("GET", fmt.Sprintf("/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d", url.QueryEscape(base64.StdEncoding.EncodeToString(lh[:])), ts), ""),
					proofBody(t, index, path))
			}
		}
	})
}

// FuzzProofWire holds the hash-list writers to the oracle on a fuzzed
// index and 0–64 hashes drawn from the fuzzed seed. The seeds are the
// checked-in corpus under testdata/fuzz/FuzzProofWire.
func FuzzProofWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16, index uint64) {
		hs := randomHashes(rand.New(rand.NewSource(seed)), int(n%65))
		rec := httptest.NewRecorder()
		ctlog.WriteGetProofByHash(rec, index, hs)
		checkBody(t, "get-proof-by-hash", rec, proofBody(t, index, hs))
		rec = httptest.NewRecorder()
		ctlog.WriteGetSTHConsistency(rec, hs)
		checkBody(t, "get-sth-consistency", rec, consistencyBody(t, hs))
	})
}

// oversizedSigner signs SCTs with a signature longer than the uint16
// vector a DigitallySigned can carry.
type oversizedSigner struct{ sct.LogSigner }

func (s oversizedSigner) CreateSCT(ts uint64, e sct.CertificateEntry) (*sct.SignedCertificateTimestamp, error) {
	out, err := s.LogSigner.CreateSCT(ts, e)
	if err != nil {
		return nil, err
	}
	out.Signature.Signature = make([]byte, 1<<16)
	return out, nil
}

// An SCT whose signature cannot be serialized is an error from WriteSCT,
// with nothing written, and a 500 from add-chain and add-pre-chain.
func TestSCTEncodingErrorAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	s := &sct.SignedCertificateTimestamp{Signature: sct.DigitallySigned{Signature: make([]byte, 1<<16)}}
	if err := ctlog.WriteSCT(rec, s); err == nil {
		t.Fatal("WriteSCT of an oversized signature: no error")
	}
	if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Fatalf("WriteSCT wrote %d bytes and headers %v before failing", rec.Body.Len(), rec.Header())
	}

	l, err := ctlog.New(ctlog.Config{Name: "oversized", Signer: oversizedSigner{sct.NewFastSigner("oversized")}})
	if err != nil {
		t.Fatal(err)
	}
	ikh := base64.StdEncoding.EncodeToString(make([]byte, 32))
	for path, body := range map[string]string{
		"/ct/v1/add-chain":     `{"chain":["Y2VydA=="]}`,
		"/ct/v1/add-pre-chain": `{"chain":["dGJz","` + ikh + `"]}`,
	} {
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s with an unserializable SCT: status %d, want 500", path, rec.Code)
		}
	}
}

// The allocation ratchets: a whole request through Handler().ServeHTTP —
// mux, query or body parsing, the recorder and its body buffer included
// — must stay under one small constant per handler. Every ceiling but
// get-entries' sits within 10 % of the count measured on this setup, so
// one or two new allocations per request fail it.

// allocRuns is the runs testing.AllocsPerRun averages over; it makes one
// more call first, as warm-up.
const allocRuns = 50

// newAllocLog returns a durable log of 256 + 32 published 1 KiB
// certificates: one sealed tile of 256 and a resident tail of 32.
func newAllocLog(t *testing.T) *ctlog.Log {
	t.Helper()
	l, err := ctlog.Open(t.TempDir(), ctlog.Config{
		Name: "alloc log", Signer: sct.NewFastSigner("alloc log"),
		TileSpan: 256, Sync: ctlog.SyncAtSequence,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cert := make([]byte, 1024)
	for i := 0; i < 256+32; i++ {
		cert[0], cert[1] = byte(i), byte(i>>8)
		if _, err := l.AddChain(cert); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if got := l.TiledThrough(); got != 256 {
		t.Fatalf("sealed through %d, want 256", got)
	}
	return l
}

// checkHandlerAllocs serves req(run) through h on every call
// testing.AllocsPerRun makes (run 0 is its warm-up) and fails the test
// if the last response is not a 200 with a body, or if the mean
// allocation count exceeds maxAllocs. Under the race detector sync.Pool drops a
// quarter of its Puts on purpose, so pooled buffers are reallocated at
// random (up to 4 more per request on these handlers); a -race build
// gets 6 on top of every ceiling.
func checkHandlerAllocs(t *testing.T, what string, maxAllocs int, h http.Handler, req func(run int) *http.Request) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				maxAllocs += 6
			}
		}
	}
	var run, status, n int
	allocs := testing.AllocsPerRun(allocRuns, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req(run))
		run++
		status, n = rec.Code, rec.Body.Len()
	})
	if status != http.StatusOK || n == 0 {
		t.Fatalf("%s: status %d, %d body bytes", what, status, n)
	}
	t.Logf("%s: %.0f allocs, %d bytes", what, allocs, n)
	if allocs > float64(maxAllocs) {
		t.Errorf("%s: %.0f allocs per request, want ≤ %d", what, allocs, maxAllocs)
	}
}

// TestGetEntriesHandlerAllocs is the ratchet on the read path monitors
// scale with: the count must not depend on the page, whether 256 sealed
// entries from a hot tile or 32 from the resident tail. Anything per
// entry (the old path cost 5 allocations each) breaks the larger page
// first.
func TestGetEntriesHandlerAllocs(t *testing.T) {
	const maxAllocs = 48 // measured 15 on both pages
	h := newAllocLog(t).Handler()
	for _, page := range []struct {
		name       string
		start, end int
	}{
		{"hot sealed page of 256", 0, 255},
		{"tail page of 32", 256, 287},
	} {
		req := httptest.NewRequest("GET", fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", page.start, page.end), nil)
		checkHandlerAllocs(t, page.name, maxAllocs, h, func(int) *http.Request { return req })
	}
}

// TestAddChainHandlerAllocs is the ratchet on the write path: an
// add-chain of a new 1 KiB certificate, from JSON decode through SCT
// signing, WAL append and staging to the encoded SCT.
func TestAddChainHandlerAllocs(t *testing.T) {
	const maxAllocs = 38 // measured 35
	h := newAllocLog(t).Handler()
	reqs := make([]*http.Request, allocRuns+1)
	for i := range reqs {
		cert := make([]byte, 1024)
		cert[0], cert[1], cert[2] = byte(i), byte(i>>8), 0xad // unlike every preloaded cert
		body := `{"chain":["` + base64.StdEncoding.EncodeToString(cert) + `"]}`
		reqs[i] = httptest.NewRequest("POST", "/ct/v1/add-chain", strings.NewReader(body))
	}
	checkHandlerAllocs(t, "add-chain", maxAllocs, h, func(run int) *http.Request { return reqs[run] })
}

// TestProofByHashHandlerAllocs is the ratchet on the audit path: a
// get-proof-by-hash for a leaf in a hot sealed tile at the published
// head.
func TestProofByHashHandlerAllocs(t *testing.T) {
	const maxAllocs = 26 // measured 24
	l := newAllocLog(t)
	entries, err := l.GetEntries(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := entries[0].LeafHash()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", fmt.Sprintf("/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d",
		url.QueryEscape(base64.StdEncoding.EncodeToString(hash[:])), l.STH().TreeHead.TreeSize), nil)
	checkHandlerAllocs(t, "proof-by-hash", maxAllocs, l.Handler(), func(int) *http.Request { return req })
}

// TestGetSTHHandlerAllocs is the ratchet on the request every client
// polls: get-sth of the published head.
func TestGetSTHHandlerAllocs(t *testing.T) {
	const maxAllocs = 14 // measured 13
	req := httptest.NewRequest("GET", "/ct/v1/get-sth", nil)
	checkHandlerAllocs(t, "get-sth", maxAllocs, newAllocLog(t).Handler(), func(int) *http.Request { return req })
}

// TestConsistencyHandlerAllocs is the ratchet on get-sth-consistency,
// from inside the sealed tile to the head in the resident tail.
func TestConsistencyHandlerAllocs(t *testing.T) {
	const maxAllocs = 22 // measured 20
	req := httptest.NewRequest("GET", "/ct/v1/get-sth-consistency?first=100&second=288", nil)
	checkHandlerAllocs(t, "get-sth-consistency", maxAllocs, newAllocLog(t).Handler(), func(int) *http.Request { return req })
}
