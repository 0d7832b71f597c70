// Command ctfront runs a standalone multi-log CT submission frontend:
// one HTTP endpoint that fans add-chain/add-pre-chain submissions out
// to a pool of backend logs until the collected SCTs satisfy the
// Chrome CT policy, then returns the whole bundle.
//
// Usage:
//
//	ctfront [-addr 127.0.0.1:8765] [-seed N] [-timeout 10s]
//	        [-passes 3] [-retry-pause 250ms]
//	        [-max-inflight 0] [-global-rate 0] [-client-rate 0]
//	        [-retry-after 1s] [-drain-timeout 10s] [-weight-interval 1m]
//	        -backend "name,operator,url,KEYSPEC[,google]" [-backend ...]
//
// Each -backend names one log reachable over the ct/v1 HTTP API (for
// example a cmd/ctlogd instance): a display name, the operator
// organization the policy's diversity rules group by, the base URL, a
// KEYSPEC for the log's SCT signing key, and an optional "google"
// marking a Google-operated log ("google" and the KEYSPEC may appear
// in either order — they are recognized by content). The pool needs at
// least one Google-operated and one non-Google backend for any
// submission to succeed.
//
// KEYSPEC is the same syntax cmd/ctmon uses — "fast" (simulation
// signer), "pubkey:BASE64" (DER SubjectPublicKeyInfo, as served by a
// durable cmd/ctlogd), or "keyfile:PATH" (DER public or EC private
// key, e.g. ctlogd's data-dir key.der) — plus "none", which explicitly
// disables verification for that backend. The keyspec is mandatory:
// remote backends are signature-verified by default, and opting out is
// a visible decision in the command line, not a silent omission. An
// SCT failing verification counts as a backend failure (backoff +
// counters at /metrics) and never enters a returned bundle.
//
// The frontend serves POST /ctfront/v1/add-chain and
// /ctfront/v1/add-pre-chain (ct/v1 request bodies; the response carries
// one SCT per contributing log), GET /ctfront/v1/health (per-backend
// health, consecutive failures, backoff, verification counters, and
// routing weight), and GET /metrics (Prometheus text format). -seed
// fixes the deterministic backend ranking, -timeout bounds each backend
// attempt (an attempt that runs out counts as that backend's failure and
// the gap is re-planned onto a spare), and -passes/-retry-pause let a
// submission ride out a rolling restart: a pass that falls short of
// policy re-runs against the recovering pool, keeping the SCTs it
// already holds.
//
// Admission control: -max-inflight bounds concurrent submissions (excess
// sheds with 503), -global-rate/-global-burst and
// -client-rate/-client-burst are token buckets (shed with 429); every
// shed response carries Retry-After (-retry-after). On SIGINT/SIGTERM
// the frontend drains: new submissions get 503 + Retry-After while
// in-flight ones finish, bounded by -drain-timeout. -weight-interval
// sets how often observed backend latency/progress is folded into the
// deterministic routing weights (0 = never, pure seed ranking).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctfront"
	"ctrise/internal/sct"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8765", "listen address")
	seed := flag.Int64("seed", 1, "seed for the deterministic backend ranking")
	timeout := flag.Duration("timeout", 10*time.Second, "per-backend submission timeout (0 = caller's deadline only)")
	backoffBase := flag.Duration("backoff-base", time.Second, "backoff after a backend's first consecutive failure (doubles per failure)")
	backoffMax := flag.Duration("backoff-max", 5*time.Minute, "backoff ceiling per backend")
	passes := flag.Int("passes", 3, "submission passes before giving up (passes >1 ride out rolling restarts)")
	retryPause := flag.Duration("retry-pause", 250*time.Millisecond, "pause between submission passes")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent submissions; excess shed with 503 (0 = unbounded)")
	globalRate := flag.Float64("global-rate", 0, "global submissions/second admitted; excess shed with 429 (0 = unlimited)")
	globalBurst := flag.Float64("global-burst", 0, "global token-bucket burst (0 = max(-global-rate, 1))")
	clientRate := flag.Float64("client-rate", 0, "per-client submissions/second admitted; excess shed with 429 (0 = unlimited)")
	clientBurst := flag.Float64("client-burst", 0, "per-client token-bucket burst (0 = max(-client-rate, 1))")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed and drain responses")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight submissions on shutdown")
	weightInterval := flag.Duration("weight-interval", time.Minute, "how often observed backend performance is committed into routing weights (0 = never)")
	var specs []ctfront.BackendSpec
	flag.Func("backend", `backend log as "name,operator,url,KEYSPEC[,google]" (repeatable; KEYSPEC: fast | pubkey:BASE64 | keyfile:PATH | none)`, func(v string) error {
		spec, err := parseBackend(v)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
		return nil
	})
	flag.Parse()

	front, err := ctfront.New(ctfront.Config{
		Backends:        specs,
		Seed:            *seed,
		Timeout:         *timeout,
		BackoffBase:     *backoffBase,
		BackoffMax:      *backoffMax,
		MaxSubmitPasses: *passes,
		RetryPause:      *retryPause,
		MaxInflight:     *maxInflight,
		GlobalRate:      *globalRate,
		GlobalBurst:     *globalBurst,
		ClientRate:      *clientRate,
		ClientBurst:     *clientBurst,
		RetryAfter:      *retryAfter,
	})
	if err != nil {
		log.Fatalf("ctfront: %v", err)
	}

	server := &http.Server{Addr: *addr, Handler: front.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("ctfront: serving %d backends on http://%s", len(specs), *addr)
		errCh <- server.ListenAndServe()
	}()

	// Routing weights commit on a timer, not per request: between
	// commits the ranking is a pure function of the seed, so bursts of
	// submissions see a stable backend order.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *weightInterval > 0 {
		go func() {
			t := time.NewTicker(*weightInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					front.CommitWeights()
				}
			}
		}()
	}

	select {
	case err := <-errCh:
		log.Fatalf("ctfront: %v", err)
	case <-ctx.Done():
		log.Printf("ctfront: signal received, draining")
		if err := front.Shutdown(server, *drainTimeout); err != nil {
			log.Fatalf("ctfront: shutdown: %v", err)
		}
		log.Printf("ctfront: shut down cleanly")
	}
}

// parseBackend parses one -backend value. The first three fields are
// positional (name, operator, url); the remaining one or two are
// recognized by content so "google" and the KEYSPEC compose in either
// order. The KEYSPEC is not optional — verification is the default,
// and "none" is the explicit opt-out.
func parseBackend(v string) (ctfront.BackendSpec, error) {
	parts := strings.Split(v, ",")
	if len(parts) < 4 || len(parts) > 5 {
		return ctfront.BackendSpec{}, fmt.Errorf("want name,operator,url,KEYSPEC[,google], got %q", v)
	}
	name, operator, url := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2])
	if name == "" || operator == "" || url == "" {
		return ctfront.BackendSpec{}, fmt.Errorf("empty field in %q", v)
	}
	google := false
	keySpec := ""
	for _, raw := range parts[3:] {
		field := strings.TrimSpace(raw)
		switch {
		case field == "google":
			if google {
				return ctfront.BackendSpec{}, fmt.Errorf("duplicate \"google\" in %q", v)
			}
			google = true
		case field == "none" || field == "fast" ||
			strings.HasPrefix(field, "pubkey:") || strings.HasPrefix(field, "keyfile:"):
			if keySpec != "" {
				return ctfront.BackendSpec{}, fmt.Errorf("duplicate KEYSPEC in %q", v)
			}
			keySpec = field
		default:
			return ctfront.BackendSpec{}, fmt.Errorf("field %q in %q is neither \"google\" nor a KEYSPEC (fast | pubkey:BASE64 | keyfile:PATH | none)", field, v)
		}
	}
	if keySpec == "" {
		return ctfront.BackendSpec{}, fmt.Errorf("missing KEYSPEC in %q (use \"none\" to explicitly disable SCT verification)", v)
	}
	spec := ctfront.BackendSpec{
		Backend:        ctclient.NewSubmitter(name, ctclient.New(url, nil)),
		Operator:       operator,
		GoogleOperated: google,
	}
	if keySpec != "none" {
		v, err := sct.ParseKeySpec(name, keySpec)
		if err != nil {
			return ctfront.BackendSpec{}, err
		}
		spec.Verifier = v
	}
	return spec, nil
}
