// Command ctlogd runs a standalone RFC 6962 Certificate Transparency log
// over HTTP.
//
// Usage:
//
//	ctlogd -data-dir DIR [-addr 127.0.0.1:8764] [-name "Dev Log"]
//	       [-capacity N] [-sequence 1s] [-tile-span N]
//	       [-page-cache BYTES] [-drain-timeout 10s]
//
// The ct/v1 endpoints (add-chain, add-pre-chain, get-sth,
// get-sth-consistency, get-proof-by-hash, get-entries) are served under
// the given address. -capacity rate-limits submissions per second to
// experiment with overload behaviour (the Nimbus incident); fractional
// rates work (0.5 admits one submission every 2s), and refusals are
// 429 + Retry-After of the -sequence interval. -sequence
// sets the batch interval at which staged submissions are integrated
// into the Merkle tree and a fresh STH published — production logs run
// the same loop well inside their MMD; a non-positive interval is a
// usage error (exit 2).
//
// -data-dir is required (without it ctlogd exits 2): an SCT is a promise
// to merge the entry within the MMD, and a log that forgot its entries
// and its key on restart could not keep it. The log is durable: the
// ECDSA P-256 signing key is created once and persisted in DIR/key.der,
// every accepted submission is fsynced to a write-ahead log before its
// SCT is returned, and sequencing/publication checkpoints are fsynced so
// a killed and restarted ctlogd serves the same STH and entries it
// served before the crash. Durable logs keep RAM and WAL bounded at any tree
// size: published entries are sealed into immutable tile files of
// -tile-span entries each (the WAL is truncated behind the seal) and
// served back from them: a get-entries page reads just its own records
// from its tile's leaf file, located by that tile's offsets page, and
// checks them on that read. The offsets, Merkle hash and index pages
// are held in an LRU page cache of at most -page-cache bytes; leaf bytes
// are left to the kernel's file cache.
// The span is a property of the on-disk state — the first start fixes
// it, later starts with a different -tile-span keep the stored value.
// On SIGINT/SIGTERM the server drains gracefully:
// new submissions are refused with 503 + Retry-After (a failover
// signal the multi-log frontend rides out, not a dropped connection)
// while in-flight ones finish — bounded by -drain-timeout — then the
// sequencer's final sequence+publish lands and a full snapshot is
// written so the next start recovers without replaying the WAL tail.
// Reads (get-sth, get-entries, proofs, /metrics) stay served throughout
// the drain so monitors can watch the restart.
//
// GET /metrics serves the log's state in the Prometheus text format, so
// a log falling behind its MMD (as Nimbus did under load) is visible
// from outside: sequenced tree size (ctlog_tree_size), published head
// size and age (ctlog_sth_tree_size, ctlog_sth_age_seconds), staged
// submissions and how long the oldest has waited for its merge
// (ctlog_staged_entries, ctlog_oldest_staged_age_seconds), capacity
// refusals (ctlog_rejected_total), entries sealed into tiles
// (ctlog_sealed_entries) and the wall time sealing them took
// (ctlog_seal_seconds_total), the tile page cache's hits, misses, evictions,
// pages and bytes (ctlog_page_cache_*), the ranged reads of sealed leaf
// files and the bytes they read (ctlog_leaf_reads_total,
// ctlog_leaf_read_bytes_total), the write-ahead log's records, buffer
// writes and fsyncs (ctlog_wal_records_total, ctlog_wal_writes_total,
// ctlog_wal_fsyncs_total; records divided by fsyncs is the group-commit
// fan-in), and ctlog_store_failed, 1 once the durable store has failed
// and refuses writes.
package main

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/drain"
	"ctrise/internal/metrics"
	"ctrise/internal/sct"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8764", "listen address")
	name := flag.String("name", "Dev Log", "log display name")
	operator := flag.String("operator", "ctrise", "log operator")
	capacity := flag.Float64("capacity", 0, "max submissions/second, fractional rates included (0.5 = one every 2s; 0 = unlimited)")
	interval := flag.Duration("sequence", time.Second, "sequencer batch interval (integrate staged entries + publish STH; must be positive)")
	dataDir := flag.String("data-dir", "", "durable state directory (WAL + snapshot + tiles + signing key); required")
	tileSpan := flag.Int("tile-span", 0, "entries per sealed storage tile, power of two ≥ 2 (0 = default 1024); fixed at first start")
	pageCache := flag.Int64("page-cache", 0, "budget in bytes of the page cache for tile hash, index and leaf-offsets pages (0 = default 64 MiB, negative = uncached reads)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight submissions on shutdown (new ones get 503 + Retry-After immediately)")
	flag.Parse()
	if err := checkFlags(flag.CommandLine); err != nil {
		fmt.Fprintf(os.Stderr, "ctlogd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	signer, err := loadOrCreateSigner(*dataDir)
	if err != nil {
		log.Fatalf("log key: %v", err)
	}
	l, err := ctlog.Open(*dataDir, ctlog.Config{
		Name:              *name,
		Operator:          *operator,
		Signer:            signer,
		CapacityPerSecond: *capacity,
		TileSpan:          *tileSpan,
		PageCacheBytes:    *pageCache,
	})
	if err != nil {
		log.Fatalf("opening durable log: %v", err)
	}

	// The sequencer ticker integrates staged submissions and publishes
	// fresh STHs, so reads serve the latest sequenced batch and monitors
	// see progress without any per-request publishing. Its context is
	// cut by SIGINT/SIGTERM; RunSequencer performs one final
	// sequence+publish on the way out, so shutdown never strands an
	// acknowledged submission outside the tree.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	seqDone := make(chan error, 1)
	go func() {
		seqDone <- l.RunSequencer(ctx, *interval)
	}()

	mux := http.NewServeMux()
	mux.Handle("/ct/v1/", l.Handler())
	mux.Handle("GET /metrics", metrics.Handler(l.WriteMetrics))
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "%s (%s)\nlog id: %s\ntree size: %d (staged: %d)\n",
			l.Name(), l.Operator(), l.LogID(), l.TreeSize(), l.PendingCount())
	})
	// The drain gate turns shutdown from "listener drops connections
	// mid-handshake" into a protocol: add-chain/add-pre-chain answer
	// 503 + Retry-After while the requests already accepted run to
	// completion; reads stay available so monitors watch the restart.
	gate := drain.NewGate(mux, time.Second)
	server := &http.Server{Addr: *addr, Handler: gate}
	httpDone := make(chan error, 1)
	go func() {
		httpDone <- server.ListenAndServe()
	}()

	fmt.Fprintf(os.Stderr, "ctlogd: %s listening on http://%s (log id %s, sequencing every %s, durable in %s)\n",
		*name, *addr, l.LogID(), *interval, *dataDir)

	// Drain in order: refuse new submissions (503 + Retry-After) while
	// in-flight ones finish, then stop the listener, let the sequencer's
	// final publish land, and snapshot + close the store. seqDone is
	// nil when the sequencer's exit was already consumed by the select.
	drainServer := func(seqDone <-chan error) {
		if err := gate.Shutdown(server, *drainTimeout); err != nil {
			log.Printf("ctlogd: shutdown: %v", err)
		}
		if seqDone != nil {
			if err := <-seqDone; err != nil && sequencerExitDirty(err) {
				log.Printf("ctlogd: final sequence: %v", err)
			}
		}
		if err := l.Close(); err != nil {
			log.Fatalf("ctlogd: closing log: %v", err)
		}
		fmt.Fprintln(os.Stderr, "ctlogd: shut down cleanly")
	}

	select {
	case err := <-httpDone:
		log.Fatal(err)
	case err := <-seqDone:
		if err != nil && !errors.Is(err, context.Canceled) {
			log.Fatalf("sequencer: %v", err)
		}
		if err != nil && sequencerExitDirty(err) {
			// Canceled, but the final drain failed: acknowledged
			// submissions are still staged (durably, in the WAL).
			log.Printf("ctlogd: final sequence: %v", err)
		}
		// Canceled: the signal landed and the sequencer's exit won the
		// select race against ctx.Done(); drain exactly as below.
		drainServer(nil)
	case <-ctx.Done():
		drainServer(seqDone)
	}
}

// checkFlags rejects a non-positive -sequence interval and a missing
// -data-dir.
func checkFlags(fs *flag.FlagSet) error {
	if d := fs.Lookup("sequence").Value.(flag.Getter).Get().(time.Duration); d <= 0 {
		return fmt.Errorf("-sequence %s is not a positive duration", d)
	}
	if fs.Lookup("data-dir").Value.String() == "" {
		return errors.New("-data-dir is required")
	}
	return nil
}

// sequencerExitDirty reports whether a RunSequencer exit error is worth
// an operator's attention: anything other than a clean cancellation.
// A joined Canceled+ErrDrainIncomplete error still Is(Canceled), so a
// plain Canceled check would silently swallow the "entries left staged"
// signal.
func sequencerExitDirty(err error) bool {
	return !errors.Is(err, context.Canceled) || errors.Is(err, ctlog.ErrDrainIncomplete)
}

// loadOrCreateSigner returns the durable log's ECDSA P-256 signer,
// creating and persisting the key on first start. The key file is the
// log's identity: losing it orphans the log (recovery refuses to serve
// STHs it cannot verify), so its creation must be durable (fsynced file
// + directory entry, or a power loss orphans every fsynced record) AND
// exclusive (two racing first-starts must converge on ONE key — a
// last-rename-wins overwrite would leave the survivor signing with a
// key that is not the one on disk, bricking the next restart).
// storage.WriteFileExclusive gives both: it fails with fs.ErrExist if
// someone else won, in which case their key is adopted.
func loadOrCreateSigner(dir string) (*sct.Signer, error) {
	if err := storage.MkdirDurable(dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "key.der")
	read := func() (*sct.Signer, error) {
		der, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		priv, err := x509.ParseECPrivateKey(der)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return sct.NewSignerFromKey(priv), nil
	}
	if s, err := read(); err == nil {
		return s, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	der, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		return nil, err
	}
	if err := storage.WriteFileExclusive(path, der); errors.Is(err, fs.ErrExist) {
		// Lost the creation race: the other process's key is the log's
		// identity now; use it.
		return read()
	} else if err != nil {
		return nil, err
	}
	return sct.NewSignerFromKey(priv), nil
}
