package ctlog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ctrise/internal/sct"
)

// TestWriteBenchTiles regenerates BENCH_tiles.json at the repository
// root: the checked-in perf trajectory for the tiled storage engine.
// Gated on UPDATE_BENCH_TILES=1 (it replays over two million
// submissions and takes a few minutes):
//
//	UPDATE_BENCH_TILES=1 go test -run TestWriteBenchTiles -timeout 30m ./internal/ctlog
//
// The artifact records, at a quarter, half, and one million entries,
// the steady-state heap (runtime.ReadMemStats after GC) of a tile-backed
// log reopened from disk versus the same log held fully in memory — the
// tiled number is bounded by the page-cache budget plus ~4 bloom bytes
// per sealed entry, independent of tree size, while the in-memory number
// grows linearly. Read latency and page-cache behaviour are the
// benchmark's crawl and audit workloads and BenchmarkLogReadTiled.
func TestWriteBenchTiles(t *testing.T) {
	if os.Getenv("UPDATE_BENCH_TILES") != "1" {
		t.Skip("set UPDATE_BENCH_TILES=1 to regenerate BENCH_tiles.json")
	}

	const (
		span          = 1024
		totalEntries  = 1 << 20
		chunk         = 1 << 16 // publish (and seal) cadence while growing
		heapCacheB    = 8 << 20
		workloadPages = 256
	)
	sizes := []uint64{1 << 18, 1 << 19, totalEntries}
	clock := func() time.Time { return time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC) }
	base := Config{
		Name:           "bench tiles log",
		Signer:         sct.NewFastSigner("bench tiles log"),
		Clock:          clock,
		Sync:           SyncAtSequence,
		TileSpan:       span,
		PageCacheBytes: heapCacheB,
	}

	heapNow := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	baseline := heapNow()

	// readWorkload drives a steady-state mix over the published tree:
	// uniform random get-entries pages, inclusion proofs, and consistency
	// proofs.
	readWorkload := func(l *Log, rng *rand.Rand, pages int) {
		t.Helper()
		size := l.TreeSize()
		for i := 0; i < pages; i++ {
			start := (rng.Uint64() % size) &^ (span - 1)
			if _, err := l.GetEntries(start, start+span-1); err != nil {
				t.Fatal(err)
			}
			if _, err := l.pub.Load().tree.InclusionProof(rng.Uint64()%size, size); err != nil {
				t.Fatal(err)
			}
			if _, err := l.GetConsistencyProof(1+rng.Uint64()%(size-1), size); err != nil {
				t.Fatal(err)
			}
		}
	}

	type heapPoint struct {
		Entries    uint64 `json:"entries"`
		TiledBytes uint64 `json:"tiled_bytes"`
		InMemBytes uint64 `json:"inmem_bytes"`
	}
	heap := make(map[uint64]*heapPoint)
	for _, s := range sizes {
		heap[s] = &heapPoint{Entries: s}
	}

	// grow submits distinct certificates up to size, publishing (which
	// seals on durable logs) every chunk.
	grow := func(l *Log, from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := l.AddChain(benchCert(i)); err != nil {
				t.Fatal(err)
			}
			if (i+1)%chunk == 0 {
				if _, err := l.PublishSTH(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// --- Tiled log: grow on disk, measure reopened steady state. ---
	dir := t.TempDir()
	{
		l, err := Open(dir, base)
		if err != nil {
			t.Fatal(err)
		}
		grown := uint64(0)
		for _, size := range sizes {
			grow(l, grown, size)
			grown = size
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, err = Open(dir, base)
			if err != nil {
				t.Fatal(err)
			}
			if l.TreeSize() != size {
				t.Fatalf("reopened tree size %d, want %d", l.TreeSize(), size)
			}
			rng := rand.New(rand.NewSource(int64(size)))
			readWorkload(l, rng, workloadPages)
			if h := heapNow(); h > baseline {
				heap[size].TiledBytes = h - baseline
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if h := heapNow(); h > baseline {
		baseline = h // residue after the tiled phase stays out of the in-memory numbers
	}

	// --- In-memory log: same content, everything resident. ---
	{
		l, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		grown := uint64(0)
		for _, size := range sizes {
			grow(l, grown, size)
			grown = size
			if _, err := l.PublishSTH(); err != nil {
				t.Fatal(err)
			}
			if h := heapNow(); h > baseline {
				heap[size].InMemBytes = h - baseline
			}
		}
	}

	heapPoints := make([]heapPoint, 0, len(sizes))
	for _, s := range sizes {
		heapPoints = append(heapPoints, *heap[s])
	}
	artifact := struct {
		Schema string `json:"schema"`
		Regen  string `json:"regenerate_with"`
		Config struct {
			Entries          uint64 `json:"entries"`
			TileSpan         int    `json:"tile_span"`
			CertBytes        int    `json:"cert_bytes"`
			SteadyCacheBytes int64  `json:"steady_state_page_cache_bytes"`
		} `json:"config"`
		Heap []heapPoint `json:"heap_steady_state"`
	}{}
	artifact.Schema = "ctrise/bench-tiles/v1"
	artifact.Regen = "UPDATE_BENCH_TILES=1 go test -run TestWriteBenchTiles -timeout 30m ./internal/ctlog"
	artifact.Config.Entries = totalEntries
	artifact.Config.TileSpan = span
	artifact.Config.CertBytes = 1024
	artifact.Config.SteadyCacheBytes = heapCacheB
	artifact.Heap = heapPoints

	out, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_tiles.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(out)+1)
}
