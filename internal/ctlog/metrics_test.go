package ctlog

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/metrics"
	"ctrise/internal/sct"
)

// scrapeLog renders l's metrics and returns each sample's value by
// series name.
func scrapeLog(l *Log) map[string]string {
	var w metrics.Writer
	l.WriteMetrics(&w)
	got := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(w.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			name, value, _ := strings.Cut(line, " ")
			got[name] = value
		}
	}
	return got
}

func wantSamples(t *testing.T, l *Log, want map[string]string) {
	t.Helper()
	got := scrapeLog(l)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %q, want %q (scrape %v)", name, got[name], v, got)
		}
	}
}

// A staged backlog and its age are what a log falling behind its MMD
// looks like from outside: three adds left unsequenced for 90 s read
// staged 3, oldest 90 s; sequencing and publishing clear both.
func TestMetricsStagedBacklogAndRejections(t *testing.T) {
	l, clk := newTestLog(t, Config{CapacityPerSecond: 3})
	got := scrapeLog(l)
	for _, name := range []string{
		"ctlog_tree_size", "ctlog_sth_tree_size", "ctlog_sth_age_seconds",
		"ctlog_staged_entries", "ctlog_oldest_staged_age_seconds",
		"ctlog_rejected_total", "ctlog_sealed_entries",
		"ctlog_page_cache_hits_total", "ctlog_page_cache_misses_total",
		"ctlog_page_cache_evictions_total", "ctlog_page_cache_pages",
		"ctlog_page_cache_bytes", "ctlog_wal_records_total",
		"ctlog_wal_writes_total", "ctlog_wal_fsyncs_total",
		"ctlog_store_failed", "ctlog_seal_seconds_total",
		"ctlog_leaf_reads_total", "ctlog_leaf_read_bytes_total",
	} {
		if got[name] != "0" {
			t.Errorf("fresh log: %s = %q, want \"0\"", name, got[name])
		}
	}
	if len(got) != 19 {
		t.Errorf("fresh log serves %d series, want 19: %v", len(got), got)
	}

	for i := 0; i < 3; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("backlog-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(90 * time.Second)
	wantSamples(t, l, map[string]string{
		"ctlog_staged_entries":            "3",
		"ctlog_oldest_staged_age_seconds": "90",
		"ctlog_tree_size":                 "0",
		"ctlog_sth_tree_size":             "0",
		"ctlog_sth_age_seconds":           "90",
	})

	if _, err := l.Sequence(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}
	wantSamples(t, l, map[string]string{
		"ctlog_staged_entries":            "0",
		"ctlog_oldest_staged_age_seconds": "0",
		"ctlog_tree_size":                 "3",
		"ctlog_sth_tree_size":             "3",
		"ctlog_sth_age_seconds":           "0",
		"ctlog_rejected_total":            "0",
	})

	// The bucket refilled to its burst of 3 during the 90 s; a fourth add
	// in the same instant is refused.
	for i := 0; i < 4; i++ {
		_, err := l.AddChain([]byte(fmt.Sprintf("burst-%d", i)))
		if (i == 3) != errors.Is(err, ErrOverloaded) {
			t.Fatalf("burst add %d: %v", i, err)
		}
	}
	clk.Advance(1500 * time.Millisecond)
	wantSamples(t, l, map[string]string{
		"ctlog_rejected_total":            "1",
		"ctlog_staged_entries":            "3",
		"ctlog_oldest_staged_age_seconds": "1.5",
	})
}

// The oldest staged age comes from the earliest SCT timestamp in the
// batch, not from its first entry: add reads the clock before it takes
// the staging lock, so a submitter that read an earlier time can stage
// second. Submitter A's clock call (t0+100 ms) is held until submitter
// B (t0+200 ms) has returned; a scrape at t0+300 ms must read 0.2 s.
func TestMetricsOldestStagedAgeIgnoresStagingOrder(t *testing.T) {
	t0 := newClock().Now()
	var mu sync.Mutex
	now := t0
	setNow := func(d time.Duration) { mu.Lock(); now = t0.Add(d); mu.Unlock() }
	var holdNext atomic.Bool
	entered, release := make(chan struct{}), make(chan time.Time)
	clock := func() time.Time {
		if holdNext.CompareAndSwap(true, false) {
			close(entered)
			return <-release
		}
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	l, err := New(Config{Name: "order log", Signer: sct.NewFastSigner("order log"), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	holdNext.Store(true)
	errA := make(chan error, 1)
	go func() {
		_, err := l.AddChain([]byte("submitter A"))
		errA <- err
	}()
	<-entered
	setNow(200 * time.Millisecond)
	if _, err := l.AddChain([]byte("submitter B")); err != nil {
		t.Fatal(err)
	}
	release <- t0.Add(100 * time.Millisecond)
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	setNow(300 * time.Millisecond)
	wantSamples(t, l, map[string]string{
		"ctlog_staged_entries":            "2",
		"ctlog_oldest_staged_age_seconds": "0.2",
	})
}

// On a durable log the seal, the page cache, the leaf reads and the
// store show: a span-2 log sealing two tiles, read back through a cache
// that holds one offsets page, moves every cache counter, and each
// sealed get-entries is one ranged leaf read (here of the whole file: a
// page of both entries); a sticky store failure reads 1.
func TestMetricsSealedCacheAndStoreFailure(t *testing.T) {
	// sealed fills a fresh span-2 log with five entries (tiles 0 and 1
	// sealed, one entry resident) and reads tile 0 twice.
	var dir string
	sealed := func(pageCache int64) *Log {
		dir = t.TempDir()
		l, clk := newDurableLog(t, dir, Config{TileSpan: 2, PageCacheBytes: pageCache})
		fillAndPublish(t, l, clk, "metrics", 5)
		for i := 0; i < 2; i++ {
			if _, err := l.GetEntries(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	l := sealed(0)
	page := l.CacheStats().Used
	if page <= 0 {
		t.Fatalf("one cached offsets page charges %d bytes", page)
	}
	leafFile, err := os.Stat(tilePath(dir, 0, storage.TileExtLeaf))
	if err != nil {
		t.Fatal(err)
	}
	wantSamples(t, l, map[string]string{
		"ctlog_sth_tree_size":              "5",
		"ctlog_sealed_entries":             "4",
		"ctlog_page_cache_misses_total":    "1",
		"ctlog_page_cache_hits_total":      "1",
		"ctlog_page_cache_evictions_total": "0",
		"ctlog_page_cache_pages":           "1",
		"ctlog_page_cache_bytes":           fmt.Sprint(page),
		"ctlog_leaf_reads_total":           "2",
		"ctlog_leaf_read_bytes_total":      fmt.Sprint(2 * leafFile.Size()),
		"ctlog_store_failed":               "0",
	})
	if got := scrapeLog(l)["ctlog_seal_seconds_total"]; got == "0" || got == "" {
		t.Errorf("after two sealed tiles ctlog_seal_seconds_total = %q, want > 0", got)
	}
	l.store.Close() // sticky failure: the store refuses all further writes
	wantSamples(t, l, map[string]string{"ctlog_store_failed": "1"})

	// The same entries under a budget of one and a half pages: tile 1's
	// page evicts tile 0's.
	small := sealed(page * 3 / 2)
	defer small.Close()
	if _, err := small.GetEntries(2, 3); err != nil {
		t.Fatal(err)
	}
	wantSamples(t, small, map[string]string{
		"ctlog_page_cache_misses_total":    "2",
		"ctlog_page_cache_evictions_total": "1",
		"ctlog_page_cache_pages":           "1",
		"ctlog_page_cache_bytes":           fmt.Sprint(page),
		"ctlog_leaf_reads_total":           "3",
	})
}

// The WAL counters show the buffer and the group commit: under
// SyncAtSequence five adds are five records and no write or fsync, and
// the sequencing barrier writes all six records (the seal's too) with
// one write and one fsync. Under SyncEachSubmission each serial add is
// its own write and fsync.
func TestMetricsWALWritesAndFsyncs(t *testing.T) {
	counters := func(l *Log) [3]int {
		got := scrapeLog(l)
		var c [3]int
		for i, name := range []string{"ctlog_wal_records_total", "ctlog_wal_writes_total", "ctlog_wal_fsyncs_total"} {
			if _, err := fmt.Sscan(got[name], &c[i]); err != nil {
				t.Fatalf("%s = %q: %v", name, got[name], err)
			}
		}
		return c
	}
	delta := func(t *testing.T, l *Log, base [3]int, want [3]int) {
		t.Helper()
		c := counters(l)
		if got := [3]int{c[0] - base[0], c[1] - base[1], c[2] - base[2]}; got != want {
			t.Fatalf("records, writes, fsyncs moved by %v, want %v", got, want)
		}
	}

	l, _ := newDurableLog(t, t.TempDir(), Config{Sync: SyncAtSequence})
	defer l.Close()
	base := counters(l)
	for i := 0; i < 5; i++ {
		if _, err := l.AddChain([]byte(fmt.Sprintf("buffered-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	delta(t, l, base, [3]int{5, 0, 0})
	if _, err := l.Sequence(); err != nil {
		t.Fatal(err)
	}
	delta(t, l, base, [3]int{6, 1, 1})

	each, _ := newDurableLog(t, t.TempDir(), Config{})
	defer each.Close()
	base = counters(each)
	for i := 0; i < 3; i++ {
		if _, err := each.AddChain([]byte(fmt.Sprintf("synced-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	delta(t, each, base, [3]int{3, 3, 3})
}
