package chaos

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

func TestScheduleIsDeterministic(t *testing.T) {
	s1 := Schedule{Seed: 42, ResetOneIn: 7, ErrOneIn: 5, TruncateOneIn: 11, DelayOneIn: 3}
	s2 := s1
	var faults int
	for i := uint64(0); i < 1000; i++ {
		p1, p2 := s1.draw(i), s2.draw(i)
		if p1 != p2 {
			t.Fatalf("request %d: draws diverged: %v vs %v", i, p1, p2)
		}
		if p1 != PlanNone {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("schedule with four active knobs drew zero faults in 1000 requests")
	}
	// A different seed must give a different fault pattern.
	s3 := Schedule{Seed: 43, ResetOneIn: 7, ErrOneIn: 5, TruncateOneIn: 11, DelayOneIn: 3}
	same := true
	for i := uint64(0); i < 1000; i++ {
		if s1.draw(i) != s3.draw(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical 1000-request fault patterns")
	}
}

func TestScheduleScriptOverrides(t *testing.T) {
	s := Schedule{
		Seed:       1,
		ErrOneIn:   1, // would 503 every request if the script did not win
		Script:     []Plan{PlanNone, PlanReset, PlanTruncate},
		ResetOneIn: 1,
	}
	want := []Plan{PlanNone, PlanReset, PlanTruncate, PlanNone, PlanNone}
	for i, w := range want {
		if got := s.draw(uint64(i)); got != w {
			t.Fatalf("request %d: got %v, want %v", i, got, w)
		}
	}
}

func TestFaultStateBursts503(t *testing.T) {
	var fs faultState
	fs.sched = &Schedule{Script: []Plan{Plan503}, ErrBurst: 3}
	want := []Plan{Plan503, Plan503, Plan503, PlanNone}
	for i, w := range want {
		if got := fs.next(); got != w {
			t.Fatalf("request %d: got %v, want %v", i, got, w)
		}
	}
	if fs.Requests() != 4 {
		t.Fatalf("Requests() = %d, want 4", fs.Requests())
	}
}

func TestProxyInjectsScriptedFaults(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, strings.Repeat("payload-", 64))
	})
	var slept time.Duration
	p := NewProxy(backend, Schedule{
		Script: []Plan{PlanNone, Plan503, PlanReset, PlanTruncate, PlanDelay},
		Delay:  250 * time.Millisecond,
	})
	p.sleep = func(d time.Duration) { slept += d }
	srv := httptest.NewServer(p)
	defer srv.Close()

	// Keep-alives off: on a reused connection Go's transport silently
	// retries a GET that died without a response, which would consume an
	// extra script slot and shift every index after a reset.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func() (*http.Response, []byte, error) {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	// 0: passthrough.
	resp, body, err := get()
	if err != nil || resp.StatusCode != 200 || len(body) != 512 {
		t.Fatalf("request 0: want clean 200 with 512 bytes, got %v status=%v len=%d", err, resp, len(body))
	}
	// 1: injected 503.
	resp, _, err = get()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request 1: want 503, got %v %v", err, resp)
	}
	// 2: connection reset — transport-level error, no response.
	if _, _, err = get(); err == nil {
		t.Fatal("request 2: want a transport error from the aborted connection")
	}
	// 3: truncated body — status 200 but the read comes up short.
	resp, body, err = get()
	if resp != nil && resp.StatusCode != 200 {
		t.Fatalf("request 3: want status 200 before truncation, got %d", resp.StatusCode)
	}
	if err == nil && len(body) >= 512 {
		t.Fatalf("request 3: body should be truncated, read %d bytes err=%v", len(body), err)
	}
	// 4: delay then passthrough.
	resp, body, err = get()
	if err != nil || resp.StatusCode != 200 || len(body) != 512 {
		t.Fatalf("request 4: want clean 200 after delay, got %v %v len=%d", err, resp, len(body))
	}
	if slept != 250*time.Millisecond {
		t.Fatalf("delay fault slept %v, want 250ms", slept)
	}
	if p.Requests() != 5 {
		t.Fatalf("proxy saw %d requests, want 5", p.Requests())
	}
}

func TestTransportInjectsScriptedFaults(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, strings.Repeat("x", 100))
	}))
	defer backend.Close()
	tr := NewTransport(nil, Schedule{
		Script: []Plan{PlanNone, Plan503, PlanReset, PlanTruncate},
	})
	hc := &http.Client{Transport: tr}

	// 0: passthrough.
	resp, err := hc.Get(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 100 {
		t.Fatalf("request 0: got %d bytes, want 100", len(body))
	}
	// 1: synthesized 503 without touching the backend.
	resp, err = hc.Get(backend.URL)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request 1: want synthesized 503, got %v %v", err, resp)
	}
	resp.Body.Close()
	// 2: synthesized connection reset.
	if _, err = hc.Get(backend.URL); err == nil {
		t.Fatal("request 2: want a reset error")
	}
	// 3: truncated body — read fails with ErrUnexpectedEOF.
	resp, err = hc.Get(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("request 3: want ErrUnexpectedEOF after %d bytes, got %v", len(body), err)
	}
	if len(body) != 50 {
		t.Fatalf("request 3: got %d bytes before the cut, want 50", len(body))
	}
}

// newChaosWorld builds an honest in-memory log with entries, wrapped in
// a chaos Log, served over HTTP.
func newChaosWorld(t *testing.T, entries int) (*Log, *httptest.Server, func() time.Time) {
	t.Helper()
	now := time.Date(2018, 4, 12, 14, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	signer := sct.NewFastSigner("chaos-test-log")
	honest, err := ctlog.New(ctlog.Config{Name: "chaos-test-log", Signer: signer, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		if _, err := honest.AddChain([]byte("cert-" + strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := honest.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	cl := NewLog(honest, signer, clock)
	srv := httptest.NewServer(cl.Handler())
	t.Cleanup(srv.Close)
	return cl, srv, clock
}

// TestShadowViewIsInternallyConsistent proves the forged view is a real
// alternate history: a client pinned to the shadow side can verify the
// shadow STH signature, stream entries, and check inclusion proofs
// without any discrepancy — while the shadow root differs from the
// honest one at the same size.
func TestShadowViewIsInternallyConsistent(t *testing.T) {
	cl, srv, _ := newChaosWorld(t, 5)
	cl.SetFault(FaultSplitView)
	ctx := context.Background()

	verifier := sct.NewFastVerifier("chaos-test-log")
	honestClient := ctclient.New(srv.URL, verifier)
	shadowClient := ctclient.New(srv.URL, verifier)
	shadowClient.HTTPClient = &http.Client{Transport: ViewTransport(nil, ViewShadow)}

	honestSTH, err := honestClient.GetSTH(ctx)
	if err != nil {
		t.Fatalf("honest view STH: %v", err)
	}
	shadowSTH, err := shadowClient.GetSTH(ctx)
	if err != nil {
		t.Fatalf("shadow view STH must carry a valid signature: %v", err)
	}
	if honestSTH.TreeHead.TreeSize != shadowSTH.TreeHead.TreeSize {
		t.Fatalf("views disagree on size: %d vs %d", honestSTH.TreeHead.TreeSize, shadowSTH.TreeHead.TreeSize)
	}
	if honestSTH.TreeHead.RootHash == shadowSTH.TreeHead.RootHash {
		t.Fatal("split view serves identical roots; no fork")
	}

	// Every shadow entry must prove inclusion under the shadow root.
	entries, err := shadowClient.GetEntries(ctx, 0, shadowSTH.TreeHead.TreeSize-1)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(entries)) != shadowSTH.TreeHead.TreeSize {
		t.Fatalf("shadow view served %d entries, want %d", len(entries), shadowSTH.TreeHead.TreeSize)
	}
	for _, e := range entries {
		if err := shadowClient.VerifyInclusion(ctx, e, shadowSTH); err != nil {
			t.Fatalf("shadow entry %d fails inclusion in shadow view: %v", e.Index, err)
		}
	}

	// The fork point: entry 0 differs between the views, entry 1 does not.
	honestEntries, err := honestClient.GetEntries(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := honestEntries[0].LeafHash()
	s0, _ := entries[0].LeafHash()
	if h0 == s0 {
		t.Fatal("entry 0 identical across views; shadow history does not diverge")
	}
	h1, _ := honestEntries[1].LeafHash()
	s1, _ := entries[1].LeafHash()
	if h1 != s1 {
		t.Fatal("entry 1 differs across views; fork should be confined to entry 0")
	}

	// And the shadow view proves its own consistency across sizes.
	proof, err := shadowClient.GetConsistencyProof(ctx, 2, shadowSTH.TreeHead.TreeSize)
	if err != nil {
		t.Fatal(err)
	}
	entries2 := entries[:2]
	tree := merkle.New()
	for _, e := range entries2 {
		lh, err := e.LeafHash()
		if err != nil {
			t.Fatal(err)
		}
		tree.AppendLeafHash(lh)
	}
	if err := merkle.VerifyConsistency(2, shadowSTH.TreeHead.TreeSize,
		tree.Root(), merkle.Hash(shadowSTH.TreeHead.RootHash), proof); err != nil {
		t.Fatalf("shadow view is not internally consistent: %v", err)
	}
}

// TestCorruptEntriesServeTamperedBytes: the honest log's entries carry
// their canonical leaf bytes and get-entries serves those without
// re-encoding, so a tampered struct copy must not ride out on the bytes
// stamped on the original — on the wire every entry shows the flipped
// bit, and the honest entries underneath are left as they were.
func TestCorruptEntriesServeTamperedBytes(t *testing.T) {
	cl, srv, _ := newChaosWorld(t, 4)
	ctx := context.Background()
	c := ctclient.New(srv.URL, nil)
	honest, err := c.GetEntries(ctx, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetFault(FaultCorruptEntries)
	corrupt, err := c.GetEntries(ctx, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != len(honest) {
		t.Fatalf("corrupt view served %d entries, want %d", len(corrupt), len(honest))
	}
	for i, e := range corrupt {
		if !bytes.Equal(e.Cert, tamperCert(honest[i].Cert)) {
			t.Errorf("entry %d: served %q, want the honest certificate %q with its last bit flipped", i, e.Cert, honest[i].Cert)
		}
	}
	cl.SetFault(FaultNone)
	again, err := c.GetEntries(ctx, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range again {
		if !bytes.Equal(e.Cert, honest[i].Cert) {
			t.Errorf("entry %d: honest view changed after serving the corrupt one", i)
		}
	}
}

// TestChaosLogHonestByDefault: with no fault set, the wrapper is
// indistinguishable from the honest log.
func TestChaosLogHonestByDefault(t *testing.T) {
	cl, srv, _ := newChaosWorld(t, 3)
	ctx := context.Background()
	c := ctclient.New(srv.URL, sct.NewFastVerifier("chaos-test-log"))
	sth, err := c.GetSTH(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := cl.Honest().STH(); sth.TreeHead != want.TreeHead {
		t.Fatalf("passthrough STH differs from honest: %+v vs %+v", sth.TreeHead, want.TreeHead)
	}
	entries, err := c.GetEntries(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := c.VerifyInclusion(ctx, e, sth); err != nil {
			t.Fatalf("honest entry %d fails inclusion: %v", e.Index, err)
		}
	}
	// Submissions pass through to the honest log.
	if _, err := c.AddChain(ctx, []byte("submitted-through-chaos")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Honest().PublishSTH(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Honest().TreeSize(); got != 4 {
		t.Fatalf("honest tree size after passthrough submit = %d, want 4", got)
	}
}

// TestShadowViewWireIdentical: forged responses go through the same
// ct/v1 writers as honest ones, so their bodies are byte for byte what
// json.NewEncoder writes for the response structs built from the shadow
// tree — get-sth, get-sth-consistency for every first ≤ second (an
// empty proof is [], not null), get-proof-by-hash for every leaf at
// every size (a 1-leaf tree's empty path included) — and the
// bad-signature fault's head carries its tampered signature.
func TestShadowViewWireIdentical(t *testing.T) {
	cl, _, _ := newChaosWorld(t, 5)
	cl.SetFault(FaultFork)
	h := cl.Handler()
	check := func(what, target string, want any) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
			t.Fatalf("%s: status %d, body\n%s\nwant\n%s", what, rec.Code, rec.Body, buf.Bytes())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(buf.Len()) {
			t.Fatalf("%s: Content-Length %q, want %d", what, got, buf.Len())
		}
	}
	b64 := base64.StdEncoding.EncodeToString
	hashes := func(hs []merkle.Hash) []string {
		out := make([]string, len(hs))
		for i, h := range hs {
			out[i] = b64(h[:])
		}
		return out
	}
	sthResponse := func(sth ctlog.SignedTreeHead) ctlog.GetSTHResponse {
		sig, err := sth.Sig.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		return ctlog.GetSTHResponse{TreeSize: sth.TreeHead.TreeSize, Timestamp: sth.TreeHead.Timestamp,
			SHA256RootHash: b64(sth.TreeHead.RootHash[:]), TreeHeadSignature: b64(sig)}
	}

	cl.mu.Lock()
	shadow, err := cl.shadowSTHLocked()
	cl.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	check("shadow get-sth", "/ct/v1/get-sth", sthResponse(shadow))
	size := shadow.TreeHead.TreeSize
	for first := uint64(1); first <= size; first++ {
		for second := first; second <= size; second++ {
			proof, err := cl.shadow.tree.ConsistencyProof(first, second)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("shadow consistency %d → %d", first, second),
				fmt.Sprintf("/ct/v1/get-sth-consistency?first=%d&second=%d", first, second),
				ctlog.GetSTHConsistencyResponse{Consistency: hashes(proof)})
		}
	}
	for lh, index := range cl.shadow.byLeafHash {
		for ts := index + 1; ts <= size; ts++ {
			path, err := cl.shadow.tree.InclusionProof(index, ts)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("shadow proof of leaf %d at size %d", index, ts),
				fmt.Sprintf("/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d", url.QueryEscape(b64(lh[:])), ts),
				ctlog.GetProofByHashResponse{LeafIndex: index, AuditPath: hashes(path)})
		}
	}

	cl.SetFault(FaultBadSignature)
	bad := cl.Honest().STH()
	bad.Sig.Signature = bytes.Clone(bad.Sig.Signature)
	bad.Sig.Signature[0] ^= 0x01
	check("bad-signature get-sth", "/ct/v1/get-sth", sthResponse(bad))
}
