// Command ctmon runs an always-on multi-log CT auditor: it follows every
// configured log concurrently, verifies each STH signature and the
// consistency proof linking it to the previously verified head, persists
// the verified-STH chain so restarts resume instead of re-verifying,
// spot-checks inclusion proofs for streamed entries, and cross-checks
// tree heads with peer auditors over gossip to detect split views. Typed
// alerts (fork, rollback, bad-signature, mmd-violation, equivocation,
// bad-entry) are printed as they fire and exported as counters.
//
// Usage:
//
//	ctmon -log "name,url,KEYSPEC" [-log ...]
//	      [-state-dir DIR] [-interval 10s] [-mmd 24h]
//	      [-addr 127.0.0.1:8791] [-peer http://host:port ...]
//	      [-print-entries]
//
// Every -log flag adds one log to follow. KEYSPEC names the log's public
// key so remote audits are cryptographic by default — there is no
// unverified mode:
//
//	fast             test-codec verifier keyed by the log name (logs
//	                 signed with the deterministic FastSigner harness)
//	pubkey:BASE64    base64 standard-encoded DER PKIX ECDSA P-256 key
//	keyfile:PATH     file containing the DER PKIX key (e.g. written by
//	                 ctlogd's key bootstrap)
//
// -state-dir holds one chain file per log (named after the log, so two
// -log names that map to the same file are refused). One ctmon per
// -state-dir: a second one exits with storage's lock error.
//
// -addr serves GET /metrics (Prometheus text format: per-log verified
// tree size, lag, throughput, and per-class alert counters) and
// GET /gossip/v1/sths (this auditor's verified heads, for peers). Each
// -peer URL names another auditor's base address to cross-check against
// every interval.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ctrise/internal/auditor"
	"ctrise/internal/certs"
	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/sct"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var logSpecs, peers multiFlag
	flag.Var(&logSpecs, "log", `log to audit as "name,url,KEYSPEC" (repeatable)`)
	flag.Var(&peers, "peer", "peer auditor base URL to cross-check against (repeatable)")
	stateDir := flag.String("state-dir", "", "directory persisting verified-STH chains; empty = in-memory only")
	interval := flag.Duration("interval", 10*time.Second, "poll and gossip interval")
	mmd := flag.Duration("mmd", 24*time.Hour, "maximum merge delay assumed for all logs")
	addr := flag.String("addr", "127.0.0.1:8791", "listen address for /metrics and /gossip/v1/sths")
	printEntries := flag.Bool("print-entries", false, "print every streamed entry's DNS names (CertStream-style)")
	flag.Parse()
	if len(logSpecs) == 0 {
		log.Fatal(`ctmon: at least one -log "name,url,KEYSPEC" is required`)
	}

	cfg := auditor.Config{
		StateDir: *stateDir,
		OnAlert: func(a auditor.Alert) {
			fmt.Printf("ALERT %s\n", a)
		},
	}
	if *printEntries {
		cfg.OnEntry = func(logName string, e *ctlog.Entry) {
			fmt.Printf("%s log=%s idx=%d type=%s names=%s\n",
				time.UnixMilli(int64(e.Timestamp)).UTC().Format(time.RFC3339),
				logName, e.Index, e.Type, strings.Join(entryNames(e), ","))
		}
	}
	for _, spec := range logSpecs {
		lc, err := parseLogSpec(spec, *mmd)
		if err != nil {
			log.Fatalf("ctmon: -log %q: %v", spec, err)
		}
		cfg.Logs = append(cfg.Logs, lc)
	}
	a, err := auditor.New(cfg)
	if err != nil {
		log.Fatalf("ctmon: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mux := http.NewServeMux()
	mux.Handle("/metrics", a.MetricsHandler())
	mux.Handle("/gossip/", a.GossipHandler())
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
		for _, lc := range cfg.Logs {
			if sth, ok := a.VerifiedSTH(lc.Name); ok {
				fmt.Fprintf(w, "%s: verified size %d\n", lc.Name, sth.TreeHead.TreeSize)
			} else {
				fmt.Fprintf(w, "%s: nothing verified yet\n", lc.Name)
			}
		}
	})
	server := &http.Server{Addr: *addr, Handler: mux}
	httpDone := make(chan error, 1)
	go func() { httpDone <- server.ListenAndServe() }()

	// The gossip loop runs beside the poll loop: each tick fetches every
	// peer's verified heads and cross-checks them against our own chain.
	// Peer transport errors are operational noise (logged, retried next
	// tick); detected split views land in the alert stream like any
	// other misbehavior.
	if len(peers) > 0 {
		go func() {
			tick := time.NewTicker(*interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					for _, p := range peers {
						if err := a.CrossCheckPeer(ctx, nil, strings.TrimSuffix(p, "/")); err != nil && ctx.Err() == nil {
							log.Printf("ctmon: gossip %s: %v", p, err)
						}
					}
				}
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "ctmon: auditing %d log(s) every %v, serving http://%s/metrics (%d gossip peer(s))\n",
		len(cfg.Logs), *interval, *addr, len(peers))

	runDone := make(chan error, 1)
	go func() { runDone <- a.Run(ctx, *interval) }()

	select {
	case err := <-httpDone:
		log.Fatal(err)
	case err := <-runDone:
		if err != nil && !errors.Is(err, context.Canceled) {
			log.Fatalf("ctmon: %v", err)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		server.Shutdown(shutCtx)
		if err := a.Close(); err != nil {
			log.Fatalf("ctmon: closing auditor: %v", err)
		}
		fmt.Fprintln(os.Stderr, "ctmon: shut down cleanly")
	}
}

// parseLogSpec parses one -log value: "name,url,KEYSPEC". The URL may
// itself contain no commas (ct/v1 base URLs never do).
func parseLogSpec(spec string, mmd time.Duration) (auditor.LogConfig, error) {
	parts := strings.SplitN(spec, ",", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return auditor.LogConfig{}, errors.New(`want "name,url,KEYSPEC"`)
	}
	name, url, keySpec := parts[0], parts[1], parts[2]
	verifier, err := sct.ParseKeySpec(name, keySpec)
	if err != nil {
		return auditor.LogConfig{}, err
	}
	return auditor.LogConfig{
		Name:   name,
		Client: ctclient.New(url, verifier),
		MMD:    mmd,
	}, nil
}

// entryNames extracts DNS names from an entry: synthetic-codec certs
// decode directly; raw DER parses via the x509 bridge; anything else is
// reported opaquely.
func entryNames(e *ctlog.Entry) []string {
	if c, err := certs.Decode(e.Cert); err == nil {
		return c.Names()
	}
	if c, err := certs.FromX509(e.Cert); err == nil {
		return c.Names()
	}
	return []string{fmt.Sprintf("<%d opaque bytes>", len(e.Cert))}
}
