package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// The traced run. Everything is timed from outside, around calls into
// public functions, on one goroutine, over op lists drawn from the seed —
// so the counts repeat exactly. Each list is replayed at three depths on
// one in-process log opened on a preload:
//
//	client   over a real loopback listener serving Log.Handler()
//	handler  Handler().ServeHTTP on an httptest.ResponseRecorder
//	core     the Log method itself
//
// and the layers below are called directly on the same inputs. The
// depths are separate executions of the same op, so a span's parent is
// the span of the same op one depth up, not an interval that encloses
// it, and time spent waiting on locks is invisible; spans inside the
// program are ROADMAP's observability item.

// span is one timed call. Start and end are nanoseconds since the
// trace began.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // 0 = none
	Op     int    `json:"op_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the two-caller WAL measurement records from two goroutines
	spans []span
}

// timed runs fn as a span and returns the span's id.
func (t *tracer) timed(name string, parent, op int, fn func()) int {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{len(t.spans) + 1, name, parent, op, int64(start), int64(end)})
	return len(t.spans)
}

// medianUS is the median duration of the spans with this name, in µs.
func (t *tracer) medianUS(name string) float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Name == name {
			v = append(v, float64(s.End-s.Start)/1e3)
		}
	}
	return median(v)
}

func (t *tracer) count(name string) (n int) {
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Op-list sizes of the full traced run; params.traceOps divides them.
const (
	traceAdds        = 2000
	tracePages       = 500
	traceProofs      = 2000
	traceConsistency = 200
	traceWALAppends  = 500
	traceSeqSmall    = 1024
	traceSeqLarge    = 16384
)

// traceRun is the state of one depth replay.
type traceRun struct {
	tr     *tracer
	seed   int64
	pre    *preload
	log    *ctlog.Log
	head   *treeHead
	res    *result
	client *conn
}

// fail counts one wrong answer.
func (t *traceRun) fail(format string, args ...any) {
	t.res.failed++
	fmt.Fprintf(os.Stderr, "bench: trace: "+format+"\n", args...)
}

// handlerCall runs one request through Handler().ServeHTTP and returns
// the span's id and the response body.
func (t *traceRun) handlerCall(name string, parent, op int, h http.Handler, req *http.Request) (int, []byte) {
	rec := httptest.NewRecorder()
	id := t.tr.timed(name, parent, op, func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		t.fail("%s op %d: HTTP %d: %.120s", name, op, rec.Code, rec.Body.Bytes())
	}
	return id, rec.Body.Bytes()
}

func addChainRequest(cert []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, addChainPath, bytes.NewReader(addChainBody(cert)))
}

func getRequest(pathQuery string) *http.Request {
	return httptest.NewRequest(http.MethodGet, pathQuery, nil)
}

// replayAdds submits n fresh certificates at each depth. Every depth
// gets its own certificates: a repeat would take the dedupe shortcut.
func (t *traceRun) replayAdds(n int) {
	h := t.log.Handler()
	for i := 0; i < n; i++ {
		t.res.attempted += 3
		var a, b int
		cert := makeCert(t.seed, streamTrace, uint64(i))
		a = t.tr.timed("client.add", 0, i, func() {
			resp, err := t.client.addChain(cert)
			if err != nil {
				t.fail("client.add %d: %v", i, err)
			} else if i%sampleEvery == 0 {
				if err := checkSCT(t.pre.key.verifier, cert, resp); err != nil {
					t.fail("client.add %d: %v", i, err)
				}
			}
		})
		cert = makeCert(t.seed, streamTrace, 1<<32|uint64(i))
		b, _ = t.handlerCall("handler.add", a, i, h, addChainRequest(cert))
		cert = makeCert(t.seed, streamTrace, 2<<32|uint64(i))
		var s *sct.SignedCertificateTimestamp
		var err error
		t.tr.timed("core.add", b, i, func() { s, err = t.log.AddChain(cert) })
		if err != nil {
			t.fail("core.add %d: %v", i, err)
		} else if err := t.pre.key.verifier.VerifySCT(s, sct.X509Entry(cert)); err != nil {
			t.fail("core.add %d: %v", i, err)
		}
	}
}

// replayPages scans n sequential pages from the start of the log,
// wrapping: the crawl's access pattern.
func (t *traceRun) replayPages(n int) (cache storage.PageCacheStats, respBytes float64) {
	h := t.log.Handler()
	size := uint64(len(t.pre.hashes))
	pass := func(depth func(op int, start uint64)) {
		for i := 0; i < n; i++ {
			t.res.attempted++
			depth(i, uint64(i)*crawlPage%size)
		}
	}
	ids := make([]int, n)
	before := t.log.CacheStats()
	pass(func(i int, start uint64) {
		ids[i] = t.tr.timed("client.entries", 0, i, func() {
			body, err := t.client.entries(start, start+crawlPage-1)
			if err != nil {
				t.fail("client.entries %d: %v", i, err)
			} else if got, err := countEntries(body); err != nil || got != crawlPage {
				t.fail("client.entries %d: %d entries, %v", i, got, err)
			}
		})
	})
	var sizes []float64
	pass(func(i int, start uint64) {
		var body []byte
		ids[i], body = t.handlerCall("handler.entries", ids[i], i, h, getRequest(entriesPath(start, start+crawlPage-1)))
		sizes = append(sizes, float64(len(body)))
		if i%sampleEvery == 0 {
			if err := checkEntries(body, t.pre.hashes[start:start+crawlPage]); err != nil {
				t.fail("handler.entries %d: %v", i, err)
			}
		}
	})
	pass(func(i int, start uint64) {
		var ents []*ctlog.Entry
		var err error
		// The first page of a tile is the one that pages the tile in: in
		// a cyclic scan of four caches' worth, always from disk.
		name := "core.entries"
		if start%ctlog.DefaultTileSpan == 0 {
			name = "core.entries_cold"
		}
		t.tr.timed(name, ids[i], i, func() { ents, err = t.log.GetEntries(start, start+crawlPage-1) })
		if err != nil || len(ents) != crawlPage {
			t.fail("core.entries %d: %d entries, %v", i, len(ents), err)
			return
		}
		for j, e := range ents {
			if h, err := e.LeafHash(); err != nil || h != t.pre.hashes[start+uint64(j)] {
				t.fail("core.entries %d: entry %d has the wrong leaf hash", i, j)
				break
			}
		}
	})
	return cacheDelta(before, t.log.CacheStats()), median(sizes)
}

func cacheDelta(before, after storage.PageCacheStats) storage.PageCacheStats {
	return storage.PageCacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
	}
}

// replayAudit asks for nProofs inclusion proofs of uniformly drawn
// leaves and nCons consistency proofs from uniformly drawn sizes.
func (t *traceRun) replayAudit(nProofs, nCons int) storage.PageCacheStats {
	h := t.log.Handler()
	size := t.head.size
	rg := newRNG(t.seed, streamTrace, 3<<32)
	leaves := make([]uint64, nProofs)
	for i := range leaves {
		leaves[i] = rg.intn(size)
	}
	firsts := make([]uint64, nCons)
	for i := range firsts {
		firsts[i] = 1 + rg.intn(size-1)
	}
	t.res.attempted += int64(3 * (nProofs + nCons))

	before := t.log.CacheStats()
	ids := make([]int, nProofs)
	for i, leaf := range leaves {
		ids[i] = t.tr.timed("client.proof", 0, i, func() {
			resp, err := t.client.proofByHash(t.pre.hashes[leaf], size)
			if err != nil || resp.LeafIndex != leaf {
				t.fail("client.proof %d: index %d, %v", i, resp.LeafIndex, err)
			}
		})
	}
	for i, leaf := range leaves {
		var body []byte
		ids[i], body = t.handlerCall("handler.proof", ids[i], i, h, getRequest(proofPath(t.pre.hashes[leaf], size)))
		var resp ctlog.GetProofByHashResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.fail("handler.proof %d: %v", i, err)
		} else if err := checkInclusion(t.pre.hashes[leaf], resp, t.head); err != nil || resp.LeafIndex != leaf {
			t.fail("handler.proof %d: index %d, %v", i, resp.LeafIndex, err)
		}
	}
	cids := make([]int, nCons)
	for i, first := range firsts {
		cids[i] = t.tr.timed("client.consistency", 0, i, func() {
			if _, err := t.client.consistency(first, size); err != nil {
				t.fail("client.consistency %d: %v", i, err)
			}
		})
	}
	for i, first := range firsts {
		var body []byte
		cids[i], body = t.handlerCall("handler.consistency", cids[i], i, h, getRequest(consistencyPath(first, size)))
		var resp ctlog.GetSTHConsistencyResponse
		root, err := t.pre.ref.RootAt(first)
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		if err == nil {
			err = checkConsistency(first, root, resp, t.head)
		}
		if err != nil {
			t.fail("handler.consistency %d: %v", i, err)
		}
	}
	for i, leaf := range leaves {
		var idx uint64
		var path []merkle.Hash
		var err error
		t.tr.timed("core.proof", ids[i], i, func() { idx, path, err = t.log.GetProofByHash(t.pre.hashes[leaf], size) })
		if err == nil {
			err = merkle.VerifyInclusion(t.pre.hashes[leaf], idx, size, path, t.head.root)
		}
		if err != nil || idx != leaf {
			t.fail("core.proof %d: index %d, %v", i, idx, err)
		}
	}
	for i, first := range firsts {
		var proof []merkle.Hash
		var err error
		t.tr.timed("core.consistency", cids[i], i, func() { proof, err = t.log.GetConsistencyProof(first, size) })
		root, rerr := t.pre.ref.RootAt(first)
		if err == nil && rerr == nil {
			err = merkle.VerifyConsistency(first, size, root, t.head.root, proof)
		}
		if err != nil || rerr != nil {
			t.fail("core.consistency %d: %v %v", i, err, rerr)
		}
	}
	return cacheDelta(before, t.log.CacheStats())
}

// handlerAllocs is allocations per request through ServeHTTP, recorder
// and all, by testing.AllocsPerRun.
func handlerAllocs(h http.Handler, reqs []*http.Request) float64 {
	i := 0
	return testing.AllocsPerRun(len(reqs)-1, func() {
		h.ServeHTTP(httptest.NewRecorder(), reqs[i])
		i++
	})
}

// traceSigner times the signer on the same certificates the adds used.
func (t *traceRun) traceSigner(n int) {
	signer := t.pre.key.signer
	for i := 0; i < n; i++ {
		entry := sct.X509Entry(makeCert(t.seed, streamTrace, uint64(i)))
		t.res.attempted++
		t.tr.timed("sct.create_sct", 0, i, func() {
			if _, err := signer.CreateSCT(uint64(i), entry); err != nil {
				t.fail("sct.create_sct: %v", err)
			}
		})
	}
	th := sct.TreeHead{Timestamp: 1, TreeSize: t.head.size, RootHash: t.head.root}
	for i := 0; i < n/10; i++ {
		t.res.attempted++
		t.tr.timed("sct.sign_tree_head", 0, i, func() {
			if _, err := signer.SignTreeHead(th); err != nil {
				t.fail("sct.sign_tree_head: %v", err)
			}
		})
	}
}

// traceWAL times append and barrier on a scratch store, first from one
// caller, then from two at once: barrier@2 ÷ barrier@1 is the
// group-commit fan-in seen from outside.
func (t *traceRun) traceWAL(dir string, n int) error {
	st, err := storage.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	e := ctlog.Entry{Type: sct.X509LogEntryType, Cert: makeCert(t.seed, streamTrace, 4<<32)}
	leaf, err := e.MerkleTreeLeaf()
	if err != nil {
		return err
	}
	var mu sync.Mutex // the log appends under its mutex; so do we
	one := func(appendName, barrierName string, op int) {
		var off int64
		var err error
		mu.Lock()
		t.tr.timed(appendName, 0, op, func() { off, err = st.AppendEntry(leaf) })
		mu.Unlock()
		if err == nil {
			t.tr.timed(barrierName, 0, op, func() { err = st.Barrier(off) })
		}
		if err != nil {
			t.fail("%s %d: %v", barrierName, op, err)
		}
	}
	t.res.attempted += int64(2 * n)
	for i := 0; i < n; i++ {
		one("storage.wal.append", "storage.wal.barrier_1caller", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard()
			for i := 0; i < n/2; i++ {
				one("storage.wal.append_2callers", "storage.wal.barrier_2callers", g*n/2+i)
			}
		}()
	}
	wg.Wait()
	return nil
}

// traceTiles reads and decodes every tile of the preload through the
// storage layer, after the log has let go of the directory.
func (t *traceRun) traceTiles(dir string) error {
	st, err := storage.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	tiles := len(t.pre.hashes) / ctlog.DefaultTileSpan
	for tile := 0; tile < tiles; tile++ {
		t.res.attempted++
		var leaf, hash, idx []byte
		var err1, err2, err3 error
		t.tr.timed("storage.tile.read", 0, tile, func() { leaf, err1 = st.ReadTile(uint64(tile), storage.TileExtLeaf) })
		hash, err2 = st.ReadTile(uint64(tile), storage.TileExtHash)
		idx, err3 = st.ReadTile(uint64(tile), storage.TileExtIndex)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("reading tile %d: %v %v %v", tile, err1, err2, err3)
		}
		t.tr.timed("storage.tile.decode_leaf", 0, tile, func() { _, err1 = storage.DecodeLeafTile(leaf) })
		var ht *storage.HashTile
		t.tr.timed("storage.tile.decode_hash", 0, tile, func() { ht, err2 = storage.DecodeHashTile(hash) })
		t.tr.timed("storage.tile.decode_index", 0, tile, func() { _, err3 = storage.DecodeTileIndex(idx) })
		want, err := t.pre.ref.TileRoot(uint64(tile))
		if err1 != nil || err2 != nil || err3 != nil || err != nil || merkle.Hash(ht.Root()) != want {
			t.fail("tile %d: decode %v %v %v, root check %v", tile, err1, err2, err3, err)
		}
	}
	return nil
}

// traceMerkle times the tree alone, in memory, over the preload's leaf
// hashes. Appends are timed a tile's worth at a time: one append is
// about as long as reading the clock.
func (t *traceRun) traceMerkle(nProofs, nCons int) error {
	tree, err := merkle.NewTiled(ctlog.DefaultTileSpan, nil)
	if err != nil {
		return err
	}
	hashes := t.pre.hashes
	for lo := 0; lo < len(hashes); lo += ctlog.DefaultTileSpan {
		t.tr.timed("merkle.append_leaf_x1024", 0, lo/ctlog.DefaultTileSpan, func() {
			for _, h := range hashes[lo : lo+ctlog.DefaultTileSpan] {
				tree.AppendLeafHash(h)
			}
		})
	}
	size := uint64(len(hashes))
	rg := newRNG(t.seed, streamTrace, 5<<32)
	t.res.attempted += int64(nProofs + 2*nCons)
	for i := 0; i < nProofs; i++ {
		leaf := rg.intn(size)
		var path []merkle.Hash
		t.tr.timed("merkle.inclusion", 0, i, func() { path, err = tree.InclusionProof(leaf, size) })
		if err == nil {
			err = merkle.VerifyInclusion(hashes[leaf], leaf, size, path, t.head.root)
		}
		if err != nil {
			t.fail("merkle.inclusion %d: %v", i, err)
		}
	}
	for i := 0; i < nCons; i++ {
		first := 1 + rg.intn(size-1)
		t.tr.timed("merkle.consistency", 0, i, func() { _, err = tree.ConsistencyProof(first, size) })
		if err != nil {
			t.fail("merkle.consistency %d: %v", i, err)
		}
		t.tr.timed("merkle.prefix_view", 0, i, func() { _, err = tree.PrefixView(first) })
		if err != nil {
			t.fail("merkle.prefix_view %d: %v", i, err)
		}
	}
	return nil
}

// traceSequencer times Sequence and PublishSTH on scratch logs with the
// repository's fast simulation signer (staging is not what is measured):
// Sequence after staging 1024 and 16 384 entries — their per-entry ratio
// is the price of chunked integration — and PublishSTH over a head that
// completes 0, 4 and 16 new tiles.
func (t *traceRun) traceSequencer(dir string, rep int) error {
	l, err := ctlog.Open(dir, ctlog.Config{
		Name:   "bench sequencer",
		Signer: sct.NewFastSigner("bench sequencer"),
		Sync:   ctlog.SyncAtSequence,
	})
	if err != nil {
		return err
	}
	defer l.Close()
	next := uint64(6+rep) << 32
	stage := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := l.AddChain(makeCert(t.seed, streamTrace, next)); err != nil {
				return err
			}
			next++
		}
		return nil
	}
	// timedIf times fn under name, or only runs it when that step's time
	// is not one of the metrics.
	timedIf := func(name string, fn func()) {
		if name == "" {
			fn()
			return
		}
		t.res.attempted++
		t.tr.timed(name, 0, rep, fn)
	}
	for _, s := range []struct {
		stage            int
		seqName, pubName string
	}{
		{traceSeqSmall, "ctlog.sequence_1024", ""},
		{traceSeqSmall / 2, "", "ctlog.publish_0tiles"},
		{4 * ctlog.DefaultTileSpan, "", "ctlog.publish_4tiles"},
		{traceSeqLarge, "ctlog.sequence_16384", "ctlog.publish_16tiles"},
	} {
		if err := stage(s.stage); err != nil {
			return err
		}
		if timedIf(s.seqName, func() { _, err = l.Sequence() }); err != nil {
			return err
		}
		if timedIf(s.pubName, func() { _, err = l.PublishSTH() }); err != nil {
			return err
		}
	}
	return nil
}

// depthCounts is what the depth replay measures besides spans.
type depthCounts struct {
	crawlCache, auditCache                storage.PageCacheStats
	respBytes                             float64
	addAllocs, entriesAllocs, proofAllocs float64
}

// replayDepths opens the preload in dir in-process, serves it on a
// loopback listener, replays the op lists at the three depths, and
// closes everything again so the tile layer can have the directory.
func (t *traceRun) replayDepths(dir string, p params) (c depthCounts, err error) {
	cfg := ctlog.Config{Name: "bench trace", Signer: t.pre.key.signer, PageCacheBytes: p.pageCache}
	for i := 0; i < 3; i++ {
		if t.log != nil {
			if err := t.log.Close(); err != nil {
				return c, err
			}
		}
		t.tr.timed("ctlog.open", 0, i, func() { t.log, err = ctlog.Open(dir, cfg) })
		if err != nil {
			return c, err
		}
	}
	defer func() {
		if cerr := t.log.Close(); err == nil {
			err = cerr
		}
	}()
	sth := t.log.STH()
	t.head = &treeHead{size: sth.TreeHead.TreeSize, timestamp: sth.TreeHead.Timestamp, root: sth.TreeHead.RootHash}
	if err := t.pre.key.verifier.VerifyTreeHead(sth.TreeHead, sth.Sig); err != nil || t.head.size != uint64(p.entries) {
		return c, fmt.Errorf("trace: reopened preload has head size %d (want %d), signature: %v", t.head.size, p.entries, err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return c, err
	}
	h := t.log.Handler()
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer guard()
		_ = srv.Serve(ln)
		close(served)
	}()
	t.client = newConn("http://" + ln.Addr().String())
	defer func() {
		t.client.close()
		_ = srv.Close()
		<-served
	}()

	d := p.traceOps
	t.replayAdds(traceAdds / d)
	c.crawlCache, c.respBytes = t.replayPages(tracePages / d)
	c.auditCache = t.replayAudit(traceProofs/d, traceConsistency/d)

	// Allocations, on requests of their own.
	const allocRuns = 21
	var addReqs, entReqs, proofReqs []*http.Request
	for i := 0; i < allocRuns; i++ {
		addReqs = append(addReqs, addChainRequest(makeCert(t.seed, streamTrace, 9<<32|uint64(i))))
		start := uint64(i) * crawlPage % t.head.size
		entReqs = append(entReqs, getRequest(entriesPath(start, start+crawlPage-1)))
		proofReqs = append(proofReqs, getRequest(proofPath(t.pre.hashes[i], t.head.size)))
	}
	c.addAllocs, c.entriesAllocs, c.proofAllocs = handlerAllocs(h, addReqs), handlerAllocs(h, entReqs), handlerAllocs(h, proofReqs)
	return c, nil
}

// runTrace is the traced run for one workload: a short untraced run of
// the workload against the real ctlogd (for its syscalls per op and the
// socket p50 the depth replay is compared with), then the depth replay.
func runTrace(root string, def workloadDef, seed int64, p params) (*result, error) {
	sp := p
	sp.setupRepeats = 1
	sp.window = min(p.window, 3*time.Second)
	sock, err := runWorkload(root, def, seed, sp)
	if err != nil {
		return nil, err
	}
	runDir, removeRunDir, err := newRunDir(root)
	if err != nil {
		return nil, err
	}
	defer removeRunDir()

	res := &result{workload: def.name, attempted: sock.attempted, failed: sock.failed,
		metrics: map[string]float64{}, info: sock.info}
	t := &traceRun{tr: &tracer{t0: time.Now()}, seed: seed, res: res}
	dir := filepath.Join(runDir, "trace-data")
	if t.pre, err = buildPreload(dir, seed, p.entries); err != nil {
		return nil, err
	}
	d := p.traceOps
	depth, err := t.replayDepths(dir, p)
	if err != nil {
		return nil, err
	}

	t.traceSigner(traceAdds / d)
	if err := t.traceWAL(filepath.Join(runDir, "wal-scratch"), traceWALAppends/d); err != nil {
		return nil, err
	}
	if err := t.traceTiles(dir); err != nil {
		return nil, err
	}
	if err := t.traceMerkle(traceProofs/d, traceConsistency/d); err != nil {
		return nil, err
	}
	reps := 3
	if d > 1 {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if err := t.traceSequencer(filepath.Join(runDir, fmt.Sprintf("seq-scratch-%d", rep)), rep); err != nil {
			return nil, err
		}
	}
	if err := t.tr.write(filepath.Join(root, "bench", "out", "trace.json")); err != nil {
		return nil, err
	}

	us := t.tr.medianUS
	m := res.metrics
	for _, c := range []string{"add", "entries", "proof", "consistency"} {
		m["net."+c+"_us"] = us("client."+c) - us("handler."+c)
		m["ctlog.http."+c+"_us"] = us("handler."+c) - us("core."+c)
		m["ctlog.core."+c+"_us"] = us("core." + c)
		res.addInfo("trace.client."+c+"_us", us("client."+c), "us")
		res.addInfo("trace.ops."+c, float64(t.tr.count("client."+c)), "count")
	}
	m["ctlog.core.entries_cold_us"] = us("core.entries_cold")
	m["ctlog.http.add_allocs"] = depth.addAllocs
	m["ctlog.http.entries_allocs"] = depth.entriesAllocs
	m["ctlog.http.proof_allocs"] = depth.proofAllocs
	m["ctlog.http.entries_resp_bytes"] = depth.respBytes
	m["sct.create_sct_us"] = us("sct.create_sct")
	m["sct.sign_tree_head_us"] = us("sct.sign_tree_head")
	m["storage.wal.append_us"] = us("storage.wal.append")
	m["storage.wal.barrier1_us"] = us("storage.wal.barrier_1caller")
	m["storage.wal.barrier2_us"] = us("storage.wal.barrier_2callers")
	m["storage.tile.read_us"] = us("storage.tile.read")
	m["storage.tile.decode_leaf_us"] = us("storage.tile.decode_leaf")
	m["storage.tile.decode_hash_us"] = us("storage.tile.decode_hash")
	m["storage.tile.decode_index_us"] = us("storage.tile.decode_index")
	m["storage.pagecache.crawl_hit_rate"] = depth.crawlCache.HitRate()
	m["storage.pagecache.crawl_evictions"] = float64(depth.crawlCache.Evictions)
	m["storage.pagecache.audit_hit_rate"] = depth.auditCache.HitRate()
	m["storage.pagecache.audit_misses"] = float64(depth.auditCache.Misses)
	res.addInfo("storage.pagecache.crawl_hits", float64(depth.crawlCache.Hits), "count")
	res.addInfo("storage.pagecache.crawl_misses", float64(depth.crawlCache.Misses), "count")
	res.addInfo("storage.pagecache.audit_hits", float64(depth.auditCache.Hits), "count")
	res.addInfo("storage.pagecache.audit_evictions", float64(depth.auditCache.Evictions), "count")
	m["merkle.append_leaf_us"] = us("merkle.append_leaf_x1024") / ctlog.DefaultTileSpan
	m["merkle.inclusion_us"] = us("merkle.inclusion")
	m["merkle.consistency_us"] = us("merkle.consistency")
	m["merkle.prefix_view_us"] = us("merkle.prefix_view")
	m["ctlog.sequencer.us_per_entry_1024"] = us("ctlog.sequence_1024") / traceSeqSmall
	m["ctlog.sequencer.us_per_entry_16384"] = us("ctlog.sequence_16384") / traceSeqLarge
	m["ctlog.publish.ms"] = us("ctlog.publish_0tiles") / 1e3
	m["ctlog.publish.ms_per_sealed_tile"] = (us("ctlog.publish_16tiles") - us("ctlog.publish_4tiles")) / 12 / 1e3
	m["ctlog.open_ms"] = us("ctlog.open") / 1e3
	m["ctlogd.syscalls_per_op"] = sock.infoValue("ctlogd.syscalls_per_op")

	// How far the single-connection replay sits from the loaded socket.
	headline := def.headline
	if headline == numClasses {
		headline = classProof
	}
	name := classNames[headline]
	m["trace.client_over_socket_p50"] = us("client."+name) / 1e3 / sock.infoValue(name+"_p50_ms")
	res.addInfo("trace.spans", float64(len(t.tr.spans)), "count")
	return res, nil
}
