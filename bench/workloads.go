package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
)

// params sizes a run. The defaults are the benchmark; the smoke test
// shrinks them.
type params struct {
	entries      int           // preload size
	pageCache    int64         // ctlogd -page-cache on preloaded workloads
	warmup       time.Duration // discarded before the measured window
	window       time.Duration // the measured window
	setupRepeats int           // fewest set-ups timed per run; the median is reported
	setupBudget  time.Duration // cheap set-ups are repeated up to 3× as often while within this
	traceOps     int           // divisor of the traced run's op lists (1 = full)
}

// The read workloads' state: 65 536 entries × 1 KiB = 64 MiB of leaf
// tiles, four times the 16 MiB page cache, while the hash and index
// tiles (≈ 9 MiB together) fit in it.
const (
	defaultEntries   = 65536
	defaultPageCache = 16 << 20
	conns            = 2 // the host has two cores; more would measure the scheduler
	crawlPage        = 256
	mixedRate        = 1500 // requests per second, about a quarter of closed-loop capacity
	mixedEntriesPage = 32
	mixedTailMean    = 4096 // mean distance behind the head of a mixed get-entries
)

func defaultParams(seconds int) params {
	return params{
		entries:      defaultEntries,
		pageCache:    defaultPageCache,
		warmup:       2 * time.Second,
		window:       time.Duration(seconds) * time.Second,
		setupRepeats: 3,
		setupBudget:  time.Second,
		traceOps:     1,
	}
}

// workloadDef is one workload: what it starts from, how it is driven,
// and which class its latency rows report.
type workloadDef struct {
	name     string
	preload  bool    // start from the preload, not an empty log
	killTest bool    // after the window: kill -9, restart, demand the acks back
	rate     float64 // 0 = closed loop
	headline class   // numClasses = every class
	op       func(r *run) opFunc
}

var workloadDefs = []workloadDef{
	{"submit", false, true, 0, classAdd, (*run).submitOp},
	{"crawl", true, false, 0, classEntries, (*run).crawlOp},
	{"audit", true, false, 0, classProof, (*run).auditOp},
	{"mixed", true, false, mixedRate, numClasses, (*run).mixedOp},
}

func findWorkload(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("bench: unknown workload %q", name)
}

// ackedCert is one acknowledged submission: enough to rebuild the
// certificate and the leaf hash the log owes it.
type ackedCert struct {
	index     uint64 // makeCert(seed, streamAdd, index)
	timestamp uint64
}

// ackedLeaf is an acknowledged submission waiting until an STH is sure
// to cover it; gen is the STH generation the client had seen at the ack.
type ackedLeaf struct {
	hash merkle.Hash
	gen  uint64
}

// run is one workload run against one ctlogd.
type run struct {
	seed    int64
	dataDir string
	bin     string
	child   *child
	key     *logKey
	pre     *preload      // nil for submit
	addSeq  atomic.Uint64 // certificates generated
	ackedN  atomic.Int64  // submissions acknowledged

	// mu guards the client's view of the log's head and, in mixed, the
	// acknowledged entries waiting for it.
	mu       sync.Mutex
	head     *treeHead
	gen      uint64 // distinct STHs seen
	waiting  []ackedLeaf
	eligible []merkle.Hash
}

// coverAfter is how many distinct STHs must follow an acknowledgement
// before the client may demand a proof for it. The head the client knew
// at the ack may be one behind the log's; the next publication may have
// drained its batch before the entry was staged; the one after that
// started after the ack and must contain it.
const coverAfter = 3

// observeSTH fetches the head, verifies its signature if it is one the
// client has not seen, and advances the client's view.
func (r *run) observeSTH(c *conn) error {
	resp, err := c.getSTH()
	if err != nil {
		return err
	}
	r.mu.Lock()
	known := r.head != nil && r.head.sig == resp.TreeHeadSignature
	r.mu.Unlock()
	if known {
		return nil
	}
	head, err := checkSTH(r.key.verifier, resp)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.head != nil && (head.timestamp < r.head.timestamp || head.size < r.head.size) {
		if head.timestamp < r.head.timestamp && head.size <= r.head.size {
			return nil // an older head, answered to the other connection first
		}
		return wrong("STH went from size %d at %d to size %d at %d",
			r.head.size, r.head.timestamp, head.size, head.timestamp)
	}
	r.head = head
	r.gen++
	n := 0
	for _, a := range r.waiting {
		if a.gen+coverAfter <= r.gen {
			r.eligible = append(r.eligible, a.hash)
		} else {
			r.waiting[n] = a
			n++
		}
	}
	r.waiting = r.waiting[:n]
	return nil
}

func (r *run) currentHead() *treeHead {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// add submits a fresh certificate and returns what was acknowledged.
func (r *run) add(w *worker) (ackedCert, []byte, error) {
	i := r.addSeq.Add(1) - 1
	cert := makeCert(r.seed, streamAdd, i)
	resp, err := w.conn.addChain(cert)
	if err != nil {
		return ackedCert{}, nil, err
	}
	if w.sample(classAdd) {
		if err := checkSCT(r.key.verifier, cert, resp); err != nil {
			return ackedCert{}, nil, err
		}
	}
	r.ackedN.Add(1)
	return ackedCert{i, resp.Timestamp}, cert, nil
}

// proof asks for leaf's audit path at the client's head. wantIndex < 0
// skips the index comparison (the client does not know where the log
// put an entry it submitted during the run).
func (r *run) proof(w *worker, leaf merkle.Hash, wantIndex int64, head *treeHead) error {
	resp, err := w.conn.proofByHash(leaf, head.size)
	if err != nil {
		return err
	}
	if wantIndex >= 0 && resp.LeafIndex != uint64(wantIndex) {
		return wrong("leaf index %d, want %d", resp.LeafIndex, wantIndex)
	}
	if w.sample(classProof) {
		return checkInclusion(leaf, resp, head)
	}
	return nil
}

// entriesPage fetches [start, start+n) and checks it: the count always
// (want, or alt where the client cannot know which), the leaf hashes on
// sampled pages for the part inside the preload.
func (r *run) entriesPage(w *worker, start uint64, n, want, alt int) error {
	body, err := w.conn.entries(start, start+uint64(n)-1)
	if err != nil {
		return err
	}
	got, err := countEntries(body)
	if err != nil {
		return err
	}
	if got != want && got != alt {
		return wrong("get-entries [%d,+%d) returned %d entries, want %d", start, n, got, want)
	}
	if w.sample(classEntries) && start < uint64(len(r.pre.hashes)) {
		end := min(start+uint64(got), uint64(len(r.pre.hashes)))
		return checkEntries(body, r.pre.hashes[start:end])
	}
	return nil
}

// clampToTile is how many entries the server returns for a page of n at
// start inside the sealed prefix: it never crosses a tile boundary.
func clampToTile(start uint64, n int) int {
	return int(min(uint64(n), ctlog.DefaultTileSpan-start%ctlog.DefaultTileSpan))
}

// submit: the CA's path. Write-only add-chain of unique certificates on
// an empty log.
func (r *run) submitOp() opFunc {
	return func(w *worker, _ *rng) (class, error) {
		a, _, err := r.add(w)
		if err == nil {
			w.acked = append(w.acked, a)
		}
		return classAdd, err
	}
}

// crawl: the monitor's path. Each connection scans its half of the log
// cyclically in sequential pages, a working set four times the page
// cache walked in LRU's worst order.
func (r *run) crawlOp() opFunc {
	half := uint64(len(r.pre.hashes) / conns)
	return func(w *worker, _ *rng) (class, error) {
		lo := uint64(w.id) * half
		if w.cursor < lo || w.cursor >= lo+half {
			w.cursor = lo
		}
		n := int(min(crawlPage, lo+half-w.cursor))
		want := clampToTile(w.cursor, n)
		err := r.entriesPage(w, w.cursor, n, want, want)
		w.cursor += uint64(want)
		return classEntries, err
	}
}

// audit: the auditor's and browser's path. Point lookups whose hash and
// index tiles fit the cache: seven inclusion proofs, two consistency
// proofs and one get-sth in every ten.
func (r *run) auditOp() opFunc {
	n := uint64(len(r.pre.hashes))
	return func(w *worker, rg *rng) (class, error) {
		switch pick := rg.intn(10); {
		case pick < 7:
			i := rg.intn(n)
			return classProof, r.proof(w, r.pre.hashes[i], int64(i), r.currentHead())
		case pick < 9:
			head := r.currentHead()
			first := 1 + rg.intn(n-1)
			resp, err := w.conn.consistency(first, head.size)
			if err != nil || !w.sample(classConsistency) {
				return classConsistency, err
			}
			root, err := r.pre.ref.RootAt(first)
			if err != nil {
				return classConsistency, err
			}
			return classConsistency, checkConsistency(first, root, resp, head)
		default:
			return classSTH, r.observeSTH(w.conn)
		}
	}
}

// mixed: writes beside reads on one log, cache and published snapshot.
// Classes add=1, sth=4, entries=8, proof=2; get-entries tails the head
// like a monitor; half the proofs are for entries acknowledged earlier
// in the run.
func (r *run) mixedOp() opFunc {
	n := uint64(len(r.pre.hashes))
	return func(w *worker, rg *rng) (class, error) {
		switch pick := rg.intn(15); {
		case pick < 1:
			a, cert, err := r.add(w)
			if err != nil {
				return classAdd, err
			}
			leaf, err := leafHashOf(cert, a.timestamp)
			if err != nil {
				return classAdd, err
			}
			r.mu.Lock()
			r.waiting = append(r.waiting, ackedLeaf{leaf, r.gen})
			r.mu.Unlock()
			return classAdd, nil
		case pick < 5:
			return classSTH, r.observeSTH(w.conn)
		case pick < 13:
			head := r.currentHead()
			back := uint64(rg.exp(mixedTailMean)) + mixedEntriesPage
			start := head.size - min(back, head.size)
			// Below the preload's size the page's tile is sealed and the
			// server stops at its end. Above it the entry may sit in the
			// resident tail (a full page) or in a tile sealed during
			// this run (clamped): either is a right answer.
			want, alt := clampToTile(start, mixedEntriesPage), mixedEntriesPage
			if start < n {
				alt = want
			}
			return classEntries, r.entriesPage(w, start, mixedEntriesPage, want, alt)
		default:
			head := r.currentHead()
			r.mu.Lock()
			var leaf merkle.Hash
			own := rg.intn(2) == 0 && len(r.eligible) > 0
			if own {
				leaf = r.eligible[rg.intn(uint64(len(r.eligible)))]
			}
			r.mu.Unlock()
			if own {
				return classProof, r.proof(w, leaf, -1, head)
			}
			i := rg.intn(n)
			return classProof, r.proof(w, r.pre.hashes[i], int64(i), head)
		}
	}
}

// setUp brings one ctlogd to the workload's starting state: build the
// binary, build the data directory, start the child, wait for get-sth.
func (r *run) setUp(root, runDir string, def workloadDef, p params) error {
	var err error
	if r.bin, err = buildCtlogd(root); err != nil {
		return err
	}
	r.dataDir = filepath.Join(runDir, "data")
	var cache int64
	if def.preload {
		if r.pre, err = buildPreload(r.dataDir, r.seed, p.entries); err != nil {
			return err
		}
		r.key = r.pre.key
		cache = p.pageCache
	} else {
		if r.key, err = newLogKey(); err != nil {
			return err
		}
		if err = r.key.install(r.dataDir); err != nil {
			return err
		}
	}
	r.child, err = startCtlogd(r.bin, r.dataDir, cache)
	return err
}

func (r *run) tearDown() error {
	if r.child != nil {
		r.child.kill()
		r.child = nil
	}
	return os.RemoveAll(r.dataDir)
}

// newRunDir makes this process's scratch directory under bench/out and
// registers its removal.
func newRunDir(root string) (string, func(), error) {
	dir := filepath.Join(root, "bench", "out", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, onExit(func() { os.RemoveAll(dir) }), nil
}

// runWorkload is one timed run: set up (several times, for a steady
// setup_s), warm up, measure, check, tear down.
func runWorkload(root string, def workloadDef, seed int64, p params) (*result, error) {
	if p.entries%(conns*ctlog.DefaultTileSpan) != 0 {
		return nil, fmt.Errorf("bench: preload of %d entries is not a whole number of tiles per connection", p.entries)
	}
	runDir, removeRunDir, err := newRunDir(root)
	if err != nil {
		return nil, err
	}
	defer removeRunDir()

	// A set-up that takes a tenth of a second (submit's) is timed more
	// often than one that takes a second, until the median is worth
	// having: at least setupRepeats times, and up to three times that
	// while they all fit in setupBudget.
	var r *run
	var setups []float64
	var total float64
	for i := 0; i < p.setupRepeats || (total < p.setupBudget.Seconds() && i < 3*p.setupRepeats); i++ {
		if r != nil {
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
		r = &run{seed: seed}
		t0 := time.Now()
		if err := r.setUp(root, runDir, def, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	defer r.tearDown()

	// The load generator runs its connections on one OS thread. With two
	// (GOMAXPROCS = the host's two cores) the client's threads, the
	// server's threads and the kernel's network work oversubscribe the
	// cores, and which of them share a core from second to second moved
	// crawl's throughput by ±7 % between runs; on one thread it repeats
	// within ±2 % on a quiet host and is 40 % higher, because the server gets the
	// cores. ctlogd keeps its default of one P per core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	workers := make([]*worker, conns)
	for i := range workers {
		workers[i] = &worker{id: i, conn: newConn(r.child.base), rng: newRNG(seed, streamWorker, uint64(i))}
		defer workers[i].conn.close()
	}
	if err := r.observeSTH(workers[0].conn); err != nil {
		return nil, fmt.Errorf("first get-sth: %w", err)
	}
	op := def.op(r)
	warm := drive(workers, op, seed, 0, p.warmup, def.rate, def.headline)

	before, err := r.child.usage()
	if err != nil {
		return nil, err
	}
	cpu := sampleCPU(r.child)
	ws := drive(workers, op, seed, 1, p.window, def.rate, def.headline)
	cpuSlices := cpu.stop()
	after, err := r.child.usage()
	if err != nil {
		return nil, err
	}

	return r.report(def, p, workers, setups, warm, ws, cpuSlices, before, after)
}

// report turns one measured window into the run's result: the info
// rows, the recovery check where the workload has one, and the
// end-to-end metrics.
func (r *run) report(def workloadDef, p params, workers []*worker, setups []float64,
	warm, ws *windowStats, cpuSlices []time.Duration, before, after usage) (*result, error) {
	res := &result{workload: def.name, attempted: ws.attempted(), failed: ws.failed(), metrics: map[string]float64{}}
	ok := res.attempted - res.failed
	if ok == 0 {
		return nil, fmt.Errorf("bench: workload %s completed no request", def.name)
	}
	for c := range ws.classes {
		cs := &ws.classes[c]
		if cs.ok+cs.failed == 0 {
			continue
		}
		name := classNames[c]
		res.addInfo(name+"_ops", float64(cs.ok), "count")
		res.addInfo(name+"_p50_ms", ms(cs.hist.Quantile(0.50)), "ms")
		res.addInfo(name+"_p99_ms", ms(cs.hist.Quantile(0.99)), "ms")
	}
	headline := ws.headlineHist()
	res.addInfo("latency_samples", float64(headline.Count()), "count")
	res.addInfo("p99_ms", quiet(ws.sliceQuantiles(0.99), false), "ms")
	res.addInfo("window_p50_ms", ms(headline.Quantile(0.50)), "ms")
	res.addInfo("window_p99_ms", ms(headline.Quantile(0.99)), "ms")
	res.addInfo("window_ops_per_s", float64(ok)/ws.elapsed.Seconds(), "1/s")
	res.addInfo("warmup_ops", float64(warm.attempted()-warm.failed()), "count")
	if def.rate > 0 {
		res.addInfo("offered_per_s", def.rate, "1/s")
		res.addInfo("generator_late_p50_ms", ms(ws.late.Quantile(0.50)), "ms")
		res.addInfo("generator_late_p99_ms", ms(ws.late.Quantile(0.99)), "ms")
	}
	if def.name == "crawl" {
		res.addInfo("entries_per_s", quiet(ws.sliceRates(), true)*crawlPage, "1/s")
	}
	res.addInfo("window_server_cpu_us_per_op", float64((after.cpu-before.cpu).Microseconds())/float64(ok), "us")
	res.addInfo("ctlogd.syscalls_per_op", float64(after.syscalls-before.syscalls)/float64(ok), "count")

	if def.killTest {
		checked, lost, err := r.recoveryCheck(workers)
		if err != nil {
			return nil, err
		}
		res.attempted += checked
		res.failed += lost
		res.addInfo("acked_checked_after_kill", float64(checked), "count")
		res.addInfo("acked_lost", float64(lost), "count")
	}
	// Space is read at rest: after the restart has sequenced and sealed
	// everything for submit, at the end of the window otherwise.
	disk, err := dirBytes(r.dataDir)
	if err != nil {
		return nil, err
	}
	stored := r.ackedN.Load()
	if def.preload {
		stored += int64(p.entries)
	}

	// CPU per op slice by slice; the whole window when it is too short
	// to have slices.
	cpuPerOp := []float64{float64((after.cpu - before.cpu).Microseconds()) / float64(ok)}
	if n := min(len(cpuSlices), len(ws.sliceOK)); n > 0 {
		cpuPerOp = cpuPerOp[:0]
		for i := 0; i < n; i++ {
			if ws.sliceOK[i] > 0 {
				cpuPerOp = append(cpuPerOp, float64(cpuSlices[i].Microseconds())/float64(ws.sliceOK[i]))
			}
		}
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["ops_per_s"] = quiet(ws.sliceRates(), true)
	if def.rate > 0 {
		// The schedule pins every slice of an open loop to the offered
		// rate; only the whole window shows whether the server kept up.
		res.metrics["ops_per_s"] = float64(ok) / ws.elapsed.Seconds()
	}
	res.metrics["p50_ms"] = quiet(ws.sliceQuantiles(0.50), false)
	res.metrics["within_limit_share"] = float64(ws.within) / float64(max(ws.attempted(), 1))
	res.metrics["server_cpu_us_per_op"] = quiet(cpuPerOp, false)
	res.metrics["server_peak_rss_mib"] = float64(after.peakRSS) / (1 << 20)
	res.metrics["disk_bytes_per_leaf_byte"] = float64(disk) / float64(stored*int64(leafBytes))
	return res, nil
}

// recoveryCheck SIGKILLs ctlogd, restarts it on the same directory, and
// requires of 512 sampled acknowledgements plus each connection's last
// 32 that the new head proves them included and that resubmitting one
// returns the original timestamp. It reports how many were checked and
// how many were lost. kill -9 leaves the OS cache intact, so this
// checks recovery, not fsync.
func (r *run) recoveryCheck(workers []*worker) (checked, lost int64, err error) {
	r.child.kill()
	if r.child, err = startCtlogd(r.bin, r.dataDir, 0); err != nil {
		return 0, 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	c := newConn(r.child.base)
	defer c.close()
	r.head = nil
	acked := uint64(r.ackedN.Load()) // nothing was in flight at the kill
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := r.observeSTH(c); err != nil {
			return 0, 0, fmt.Errorf("get-sth after restart: %w", err)
		}
		if r.head.size >= acked {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("restarted ctlogd published %d of %d acknowledged entries", r.head.size, acked)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var sample []ackedCert
	for _, w := range workers {
		sample = append(sample, w.acked[max(0, len(w.acked)-32):]...)
	}
	rg := newRNG(r.seed, streamWorker, conns)
	for i := 0; i < 512; i++ {
		w := workers[rg.intn(conns)]
		if len(w.acked) > 0 {
			sample = append(sample, w.acked[rg.intn(uint64(len(w.acked)))])
		}
	}
	for _, a := range sample {
		checked++
		if err := r.recovered(c, a); err != nil {
			lost++
			fmt.Fprintf(os.Stderr, "bench: acknowledged cert %d lost: %v\n", a.index, err)
		}
	}
	return checked, lost, nil
}

func (r *run) recovered(c *conn, a ackedCert) error {
	cert := makeCert(r.seed, streamAdd, a.index)
	leaf, err := leafHashOf(cert, a.timestamp)
	if err != nil {
		return err
	}
	resp, err := c.proofByHash(leaf, r.head.size)
	if err != nil {
		return err
	}
	if err := checkInclusion(leaf, resp, r.head); err != nil {
		return err
	}
	again, err := c.addChain(cert)
	if err != nil {
		return err
	}
	if again.Timestamp != a.timestamp {
		return wrong("resubmission got timestamp %d, want the original %d", again.Timestamp, a.timestamp)
	}
	return nil
}
