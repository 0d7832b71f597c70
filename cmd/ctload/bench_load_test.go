package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/load"
	"ctrise/internal/sct"
)

// benchServer is one in-process log exposed over a real loopback
// socket, with a wall-clock sequencer. Close cancels the sequencer and
// shuts the listener down.
type benchServer struct {
	log *ctlog.Log
	srv *httptest.Server
}

// newBenchServer returns the server and a stopSeq function that halts
// the wall-clock sequencer (idempotent; also run at cleanup). Stopping
// the sequencer lets a benchmark take over sequencing manually without
// racing the ticker.
func newBenchServer(t *testing.T, cfg ctlog.Config, interval time.Duration) (*benchServer, func()) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "ctload bench log"
	}
	cfg.Signer = sct.NewFastSigner(cfg.Name)
	l, err := ctlog.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.RunSequencer(ctx, interval) }()
	var stopped sync.Once
	stopSeq := func() {
		stopped.Do(func() {
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Errorf("sequencer exit: %v", err)
			}
		})
	}
	t.Cleanup(func() {
		stopSeq()
		srv.Close()
	})
	return &benchServer{log: l, srv: srv}, stopSeq
}

// The harness must complete requests in every workload class against a
// live server over real sockets — the in-repo version of the CI smoke.
func TestHarnessCompletesAllClasses(t *testing.T) {
	bs, _ := newBenchServer(t, ctlog.Config{}, 20*time.Millisecond)
	h, err := newHarness(context.Background(), bs.srv.URL, "", 4, 7, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := load.ParseMix("add=1,sth=2,entries=2,proof=2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := load.Run(context.Background(), load.Options{
		Conns: 4, Duration: 400 * time.Millisecond, Mix: mix, Seed: 7,
	}, h.ops())
	if err != nil {
		t.Fatal(err)
	}
	for _, or := range res.SortedOps() {
		if or.Requests == 0 {
			t.Errorf("class %q completed zero requests", or.Op)
		}
		if or.Errors != 0 {
			t.Errorf("class %q: %d errors", or.Op, or.Errors)
		}
	}
}

// starvationReaders is the dedicated reader set shared by the
// starvation and idle measurements: every class rides the lock-free
// published snapshot — get-sth and get-entries from the start, the
// proof endpoints since they moved onto the frozen publishedState proof
// view — so the comparison below is what pins the "readers never queue
// behind the sequencer" property at the socket level.
var starvationReaders = []struct {
	op load.Op
	n  int
}{
	{load.OpGetSTH, 2},
	{load.OpGetEntries, 2},
	{load.OpGetProof, 4},
}

// measureReaders runs the dedicated reader set for exactly the duration
// of window(): readers start issuing requests over the socket when it
// starts and stop when it returns (in-flight requests complete and
// still count, blocked time included), so the histograms are undiluted
// by idle time around the window — a sequencer that queues readers
// shows up as latencies the length of the whole integration, not as a
// tail quantile drowned by fast requests.
func measureReaders(t *testing.T, ops map[load.Op]load.OpFunc, window func()) map[string]jsonOpResult {
	t.Helper()
	ctx := context.Background()
	stop := make(chan struct{})
	type reader struct {
		op   load.Op
		hist *load.Histogram
		errs uint64
	}
	var wg sync.WaitGroup
	var readers []*reader
	for w, spec := range starvationReaders {
		for i := 0; i < spec.n; i++ {
			r := &reader{op: spec.op, hist: &load.Histogram{}}
			readers = append(readers, r)
			rng := rand.New(rand.NewSource(int64(100*w + i)))
			wg.Add(1)
			go func(r *reader) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					if err := ops[r.op](ctx, rng); err != nil {
						r.errs++
					}
					r.hist.Record(time.Since(t0))
				}
			}(r)
		}
	}

	window()
	close(stop)
	wg.Wait()

	classes := make(map[string]jsonOpResult, len(starvationReaders))
	for _, spec := range starvationReaders {
		agg := jsonOpResult{}
		hist := &load.Histogram{}
		for _, r := range readers {
			if r.op != spec.op {
				continue
			}
			hist.Merge(r.hist)
			agg.Errors += r.errs
		}
		agg.Requests = hist.Count()
		agg.Latency = hist.Summarize()
		if agg.Requests == 0 {
			t.Fatalf("reader measurement: class %q completed zero requests", spec.op)
		}
		classes[string(spec.op)] = agg
	}
	return classes
}

// starvationRun measures reader latency for requests issued while one
// large staged batch integrates, plus — on the same server, after the
// batch publishes — an idle baseline over the full-size tree with no
// writer anywhere. The during/idle pair is the reader-starvation
// headline: with proofs served from the published snapshot the two must
// be within a small factor of each other.
func starvationRun(t *testing.T, entries int) (integrateMS float64, classes, idle map[string]jsonOpResult) {
	t.Helper()
	bs, stopSeq := newBenchServer(t, ctlog.Config{}, 10*time.Millisecond)
	h, err := newHarness(context.Background(), bs.srv.URL, "", 8, 13, 128, 256)
	if err != nil {
		t.Fatal(err)
	}
	// The warmup sequencer must not race the measured integration:
	// stage the big batch only after it has drained and stopped.
	stopSeq()
	for i := 0; i < entries; i++ {
		cert := warmupCert(1<<40+int64(i), i, 96)
		if _, err := bs.log.AddChain(cert); err != nil {
			t.Fatal(err)
		}
	}

	ops := h.ops()
	var integrate time.Duration
	classes = measureReaders(t, ops, func() {
		t0 := time.Now()
		if _, err := bs.log.Sequence(); err != nil {
			t.Fatal(err)
		}
		integrate = time.Since(t0)
	})

	// Idle baseline: same readers, same tree (published so proofs cover
	// all of it), no integration in flight.
	if _, err := bs.log.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	idle = measureReaders(t, ops, func() { time.Sleep(2 * time.Second) })
	return float64(integrate) / float64(time.Millisecond), classes, idle
}

// TestWriteBenchLoad regenerates BENCH_load.json at the repository
// root: per-class latency for the standard mixed workload over real
// sockets, plus the reader-starvation check — reader p99 while a large
// staged batch integrates in one pass, against an idle baseline over the
// same published tree.
//
//	UPDATE_BENCH_LOAD=1 go test -run TestWriteBenchLoad -timeout 10m ./cmd/ctload
func TestWriteBenchLoad(t *testing.T) {
	if os.Getenv("UPDATE_BENCH_LOAD") != "1" {
		t.Skip("set UPDATE_BENCH_LOAD=1 to regenerate BENCH_load.json")
	}
	const starveEntries = 500_000

	// Section 1: the standard mixed workload, closed loop.
	bs, stopSeq := newBenchServer(t, ctlog.Config{}, 100*time.Millisecond)
	h, err := newHarness(context.Background(), bs.srv.URL, "", 16, 1, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := load.ParseMix("add=1,sth=4,entries=8,proof=2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := load.Run(context.Background(), load.Options{
		Conns: 16, Duration: 5 * time.Second, Mix: mix, Seed: 1,
	}, h.ops())
	if err != nil {
		t.Fatal(err)
	}
	workload := map[string]jsonOpResult{}
	for _, or := range res.SortedOps() {
		workload[string(or.Op)] = jsonOpResult{
			Requests: or.Requests, Errors: or.Errors, Latency: or.Hist.Summarize(),
		}
	}
	stopSeq()

	// Section 2: reader p99 under large-batch integration, paired with
	// an idle baseline over the same full-size published tree.
	integrateMS, during, idle := starvationRun(t, starveEntries)

	out := map[string]any{
		"schema":          "ctrise/bench-load/v1",
		"regenerate_with": "UPDATE_BENCH_LOAD=1 go test -run TestWriteBenchLoad -timeout 10m ./cmd/ctload",
		"config": map[string]any{
			"conns":              16,
			"duration_seconds":   5,
			"mix":                "add=1,sth=4,entries=8,proof=2",
			"cert_bytes":         256,
			"starvation_entries": starveEntries,
			"starvation_readers": "sth=2,entries=2,proof=4",
			"starvation_conns":   8,
		},
		"workload": map[string]any{
			"requests":       res.Requests,
			"errors":         res.Errors,
			"throughput_rps": res.Throughput(),
			"classes":        workload,
		},
		"reader_starvation": map[string]any{
			// Every read class serves the lock-free published snapshot, so
			// during-integration latency is CPU contention, not lock convoy
			// — on a single-core runner all classes degrade together and
			// the idle comparison is confounded by the integration hogging
			// the core. The convoy signal is get-proof tracking get-sth
			// (the class that has always been lock-free): before proofs
			// moved onto the snapshot, get-proof p50 during a whole-batch
			// integration was the full integration time (~1020ms vs ~44ms
			// for get-sth).
			"note":         "during-integration vs idle comparison is CPU-bound on single-core runners; the lock-convoy signal is get-proof parity with get-sth",
			"integrate_ms": integrateMS,
			"classes":      during,
			"idle_classes": idle,
		},
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_load.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("integrate %.0fms, proof p99 %.2fms (idle %.2fms), sth p99 %.2fms",
		integrateMS, during["get-proof"].Latency.P99MS, idle["get-proof"].Latency.P99MS, during["get-sth"].Latency.P99MS)
}
