// Package auditor implements an always-on, multi-log CT auditor: the
// third-party monitor whose continuous presence is what gives
// Certificate Transparency its security value (the paper's Section 6
// monitoring story, hardened against a misbehaving log rather than a
// merely crash-prone one).
//
// For every configured log the auditor follows the entry stream with a
// ctclient.Monitor, cryptographically verifies each STH signature,
// checks every tree-head transition (consistency proofs for growth,
// rollback and same-size/different-root detection otherwise),
// spot-checks inclusion proofs for streamed entries, tracks SCT
// inclusion promises against the log's MMD, and cross-checks its
// verified tree heads against gossip peers to detect split views that
// are invisible to any single vantage point. Misbehavior is emitted as
// typed, machine-checkable Alerts (see AlertClass); operational failures
// (network errors, 5xx) are counted but never alerted, so an honest log
// behind a flaky network audits clean.
//
// The verified-STH chain and the entry-consumption cursor are persisted
// per log in a storage.AppendLog (the WAL's code), so a restarted
// auditor resumes from its durable verification frontier: it re-alerts
// on nothing it already verified, re-streams no audited entries, and
// still catches a fork or rollback that spans the restart.
package auditor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// maxSpotChecksPerPoll caps the inclusion proofs fetched per poll so a
// large catch-up batch cannot turn one poll into thousands of
// get-proof-by-hash round trips.
const maxSpotChecksPerPoll = 16

// LogConfig describes one log to audit.
type LogConfig struct {
	// Name is the log's display name (also the chain file name stem).
	Name string
	// Client talks to the log. Its Verifier must be set: an auditor that
	// cannot verify STH signatures cannot tell misbehavior from noise,
	// so New rejects unverifiable logs.
	Client *ctclient.Client
	// MMD is the log's maximum merge delay for inclusion-promise
	// tracking. Defaults to 24h.
	MMD time.Duration
}

// Config configures an Auditor.
type Config struct {
	// Logs lists the logs to follow. Order is preserved in metrics and
	// gossip output.
	Logs []LogConfig
	// StateDir, when non-empty, persists each log's verified-STH chain
	// and entry cursor so restarts resume instead of re-verifying. One
	// auditor at a time: a second one on a held dir gets
	// storage.ErrLocked.
	StateDir string
	// SpotCheckEvery samples every Nth streamed entry for an inclusion
	// proof check (at most maxSpotChecksPerPoll per poll). 0 defaults to
	// 8; negative disables spot-checking.
	SpotCheckEvery int
	// RetryBase overrides the monitors' backoff base before the first
	// retry of a transient fetch failure. 0 keeps the ctclient default
	// (100ms); chaos tests shrink it so injected fault storms resolve
	// in milliseconds.
	RetryBase time.Duration
	// Clock stamps alerts. Defaults to time.Now. Tests and replayed
	// ecosystems install a virtual clock.
	Clock func() time.Time
	// OnAlert, if set, is called synchronously for every new alert.
	OnAlert func(Alert)
	// OnEntry, if set, receives every streamed entry — the hook that
	// feeds incremental analytics (phish scoring, honeypot detection)
	// without a second crawl.
	OnEntry func(log string, e *ctlog.Entry)
}

// Auditor follows many logs concurrently and reports typed alerts
// through Config.OnAlert and its metrics.
// All exported methods are safe for concurrent use.
type Auditor struct {
	cfg   Config
	names []string
	logs  map[string]*logAuditor
}

// New builds an Auditor and, when Config.StateDir is set, loads each
// log's persisted chain, seeding the monitors with their durable
// verification frontier. Two logs whose names map to one chain file
// name (storage.SafeName: "Argon 2018" and "argon-2018") are refused,
// with or without a state dir.
func New(cfg Config) (*Auditor, error) {
	if len(cfg.Logs) == 0 {
		return nil, errors.New("auditor: no logs configured")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.SpotCheckEvery == 0 {
		cfg.SpotCheckEvery = 8
	}
	// Each log's chain file is named after the log; two names that map
	// to one file would share (and corrupt) one chain.
	files := make(map[string]string, len(cfg.Logs))
	for _, lc := range cfg.Logs {
		if lc.Name == "" || lc.Client == nil {
			return nil, errors.New("auditor: log config needs a name and a client")
		}
		if lc.Client.Verifier == nil {
			return nil, fmt.Errorf("auditor: log %q has no verifier; audits must be cryptographic", lc.Name)
		}
		file := chainFileName(lc.Name)
		if prev, dup := files[file]; dup {
			return nil, fmt.Errorf("auditor: logs %q and %q share the chain file name %s", prev, lc.Name, file)
		}
		files[file] = lc.Name
	}
	if cfg.StateDir != "" {
		if err := storage.MkdirDurable(cfg.StateDir); err != nil {
			return nil, fmt.Errorf("auditor: %w", err)
		}
	}
	a := &Auditor{cfg: cfg, logs: make(map[string]*logAuditor, len(cfg.Logs))}
	for _, lc := range cfg.Logs {
		la := &logAuditor{
			a:            a,
			name:         lc.Name,
			client:       lc.Client,
			mmd:          lc.MMD,
			mon:          ctclient.NewMonitor(lc.Client),
			expectations: make(map[merkle.Hash]uint64),
			dedupe:       make(map[string]bool),
			alertCount:   make(map[AlertClass]uint64),
		}
		if la.mmd <= 0 {
			la.mmd = 24 * time.Hour
		}
		if cfg.StateDir != "" {
			ch, err := openChain(filepath.Join(cfg.StateDir, chainFileName(lc.Name)))
			if err != nil {
				a.Close()
				return nil, fmt.Errorf("auditor: log %q: %w", lc.Name, err)
			}
			la.ch = ch
			if ch.last != nil {
				// Resume: anchor consistency checks on the persisted head
				// and entry streaming on the persisted cursor, so nothing
				// already audited is re-fetched or re-verified.
				la.mon = ctclient.NewMonitorAt(lc.Client, ch.cursor)
				la.mon.SetLastSTH(*ch.last)
			}
		}
		if cfg.RetryBase > 0 {
			la.mon.RetryBase = cfg.RetryBase
		}
		a.logs[lc.Name] = la
		a.names = append(a.names, lc.Name)
	}
	return a, nil
}

// Close releases the per-log chain files.
func (a *Auditor) Close() error {
	var firstErr error
	for _, name := range a.names {
		la := a.logs[name]
		la.mu.Lock()
		if la.ch != nil {
			if err := la.ch.log.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		la.mu.Unlock()
	}
	return firstErr
}

// ExpectInclusion registers an SCT promise to watch: the log issued an
// SCT at sctTimestamp (milliseconds) over an entry with the given leaf
// hash. If the leaf has not streamed by the time the log's own STH
// timestamp passes sctTimestamp+MMD, an mmd-violation alert is raised.
func (a *Auditor) ExpectInclusion(log string, leafHash merkle.Hash, sctTimestamp uint64) error {
	la, ok := a.logs[log]
	if !ok {
		return fmt.Errorf("auditor: unknown log %q", log)
	}
	la.mu.Lock()
	defer la.mu.Unlock()
	la.expectations[leafHash] = sctTimestamp
	return nil
}

// PollOnce runs one audit pass over every log concurrently. Typed
// misbehavior becomes alerts, not errors; the returned error is the
// first operational failure (network, 5xx after retries) if any.
func (a *Auditor) PollOnce(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(a.names))
	for i, name := range a.names {
		wg.Add(1)
		go func(i int, la *logAuditor) {
			defer wg.Done()
			errs[i] = la.poll(ctx)
		}(i, a.logs[name])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run polls every log on the given interval until ctx is done — the
// always-on mode cmd/ctmon runs. Operational errors are counted in the
// per-log metrics and retried on the next tick rather than terminating
// the loop; only ctx cancellation returns.
func (a *Auditor) Run(ctx context.Context, interval time.Duration) error {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		_ = a.PollOnce(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// VerifiedSTH returns the head of a log's verified chain, or false if
// nothing has been verified yet.
func (a *Auditor) VerifiedSTH(log string) (ctlog.SignedTreeHead, bool) {
	la, ok := a.logs[log]
	if !ok {
		return ctlog.SignedTreeHead{}, false
	}
	la.mu.Lock()
	defer la.mu.Unlock()
	sth := la.mon.LastSTH()
	if sth == nil {
		return ctlog.SignedTreeHead{}, false
	}
	return *sth, true
}

// record registers an alert, deduplicating exact repeats (same log,
// class, and detail) so a fault that persists across polls yields one
// alert, and notifies Config.OnAlert for new ones.
func (a *Auditor) record(la *logAuditor, class AlertClass, size uint64, detail string) {
	key := string(class) + "\x00" + detail
	la.mu.Lock()
	if la.dedupe[key] {
		la.mu.Unlock()
		return
	}
	la.dedupe[key] = true
	la.alertCount[class]++
	la.mu.Unlock()

	if a.cfg.OnAlert != nil {
		a.cfg.OnAlert(Alert{Log: la.name, Class: class, TreeSize: size, Time: a.cfg.Clock(), Detail: detail})
	}
}

// logAuditor is the per-log audit state. poll runs are serialized per
// log (PollOnce launches one goroutine per log; Run calls PollOnce
// sequentially); the mutex guards the fields read concurrently by
// metrics, gossip, and accessor methods.
type logAuditor struct {
	a      *Auditor
	name   string
	client *ctclient.Client
	mmd    time.Duration

	mu  sync.Mutex
	mon *ctclient.Monitor
	ch  *chain // nil when StateDir is unset
	// expectations maps leaf hash → SCT timestamp for registered
	// inclusion promises not yet observed in the stream.
	expectations map[merkle.Hash]uint64
	dedupe       map[string]bool
	alertCount   map[AlertClass]uint64
	// metrics
	polls      uint64
	pollErrors uint64
	entries    uint64
	spotChecks uint64
	sampleTick uint64
}

// poll runs one audit pass: fetch and verify the STH transition, stream
// new entries (feeding analytics, inclusion expectations, and the
// spot-check sample), verify the sample's inclusion proofs, enforce MMD
// promises, and persist the advanced chain head. Typed misbehavior is
// recorded as an alert and poll returns nil — the alert is the outcome;
// only operational failures return an error.
func (la *logAuditor) poll(ctx context.Context) error {
	var sample []*ctlog.Entry
	every := la.a.cfg.SpotCheckEvery
	err := la.mon.Poll(ctx, func(e *ctlog.Entry) error {
		la.mu.Lock()
		la.entries++
		if h, herr := e.LeafHash(); herr == nil {
			delete(la.expectations, h)
		}
		if every > 0 && la.sampleTick%uint64(every) == 0 && len(sample) < maxSpotChecksPerPoll {
			sample = append(sample, e)
		}
		la.sampleTick++
		la.mu.Unlock()
		if la.a.cfg.OnEntry != nil {
			la.a.cfg.OnEntry(la.name, e)
		}
		return nil
	})
	la.mu.Lock()
	la.polls++
	lastSize := uint64(0)
	if sth := la.mon.LastSTH(); sth != nil {
		lastSize = sth.TreeHead.TreeSize
	}
	la.mu.Unlock()
	if err != nil {
		if class, ok := classifyPollError(err); ok {
			la.a.record(la, class, lastSize, err.Error())
			return nil
		}
		la.mu.Lock()
		la.pollErrors++
		la.mu.Unlock()
		return fmt.Errorf("auditor: %s: %w", la.name, err)
	}

	sth := la.mon.LastSTH() // non-nil after a successful Poll
	var firstErr error
	for _, e := range sample {
		la.mu.Lock()
		la.spotChecks++
		la.mu.Unlock()
		if err := la.spotCheck(ctx, e, *sth); err != nil {
			if isBadEntry(err) {
				la.a.record(la, AlertBadEntry, sth.TreeHead.TreeSize,
					fmt.Sprintf("entry %d failed inclusion spot-check: %v", e.Index, err))
				continue
			}
			la.mu.Lock()
			la.pollErrors++
			la.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("auditor: %s: spot-check entry %d: %w", la.name, e.Index, err)
			}
		}
	}

	// MMD enforcement runs on the log's own clock (the STH timestamp),
	// so a virtual-clock replay and a wall-clock deployment behave
	// identically: an expectation is violated once the log publishes a
	// head dated past the promise deadline without the entry.
	la.mu.Lock()
	mmdMillis := uint64(la.mmd / time.Millisecond)
	var violated []merkle.Hash
	for h, ts := range la.expectations {
		if sth.TreeHead.Timestamp > ts+mmdMillis {
			violated = append(violated, h)
		}
	}
	for _, h := range violated {
		delete(la.expectations, h)
	}
	la.mu.Unlock()
	// Deterministic alert order regardless of map iteration.
	sort.Slice(violated, func(i, j int) bool {
		return bytes.Compare(violated[i][:], violated[j][:]) < 0
	})
	for _, h := range violated {
		la.a.record(la, AlertMMDViolation, sth.TreeHead.TreeSize,
			fmt.Sprintf("entry %x not merged by STH dated %d (MMD %v)", h[:8], sth.TreeHead.Timestamp, la.mmd))
	}

	// Persist the advanced frontier. Idle republishes (same size, root,
	// and cursor) are skipped so the chain file stays bounded at zero
	// load.
	la.mu.Lock()
	defer la.mu.Unlock()
	if la.ch != nil {
		cursor := la.mon.NextIndex()
		if la.ch.last == nil ||
			la.ch.last.TreeHead.TreeSize != sth.TreeHead.TreeSize ||
			la.ch.last.TreeHead.RootHash != sth.TreeHead.RootHash ||
			la.ch.cursor != cursor {
			if err := la.ch.append(*sth, cursor); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("auditor: %s: persisting chain: %w", la.name, err)
			}
		}
	}
	return firstErr
}

// spotCheck proves one streamed entry is included in the verified tree
// AT THE INDEX IT WAS SERVED AT. The position check matters:
// Client.VerifyInclusion alone verifies the proof at whatever index the
// log returns for the hash, which proves "this leaf exists somewhere" —
// a log that permutes entry contents across positions (serving entry
// i's body in entry j's slot) would pass it, because every served body
// still hashes to some leaf in the tree. Binding the proof to the
// served position closes that hole.
func (la *logAuditor) spotCheck(ctx context.Context, e *ctlog.Entry, sth ctlog.SignedTreeHead) error {
	leafHash, err := e.LeafHash()
	if err != nil {
		return err
	}
	index, proof, err := la.client.GetProofByHash(ctx, leafHash, sth.TreeHead.TreeSize)
	if err != nil {
		return err
	}
	if index != e.Index {
		return fmt.Errorf("%w: served at index %d, log proves it at %d", merkle.ErrProofInvalid, e.Index, index)
	}
	return merkle.VerifyInclusion(leafHash, index, sth.TreeHead.TreeSize, proof, merkle.Hash(sth.TreeHead.RootHash))
}

// classifyPollError maps Monitor.Poll's typed misbehavior errors to
// alert classes. Anything else (transport, 5xx, context) is operational.
func classifyPollError(err error) (AlertClass, bool) {
	switch {
	case errors.Is(err, ctclient.ErrRollback):
		return AlertRollback, true
	case errors.Is(err, ctclient.ErrEquivocation):
		return AlertEquivocation, true
	case errors.Is(err, ctclient.ErrFork):
		return AlertFork, true
	case errors.Is(err, sct.ErrInvalidSignature),
		errors.Is(err, sct.ErrUnsupportedAlgorithm),
		errors.Is(err, sct.ErrUnsupportedVersion):
		return AlertBadSignature, true
	}
	return "", false
}

// isBadEntry reports whether an inclusion spot-check failure is
// evidence against the served entry bytes: the log does not know the
// leaf hash we computed from them (404 — the hash is not in its tree),
// or it produced a proof that does not verify. Transport failures are
// not evidence.
func isBadEntry(err error) bool {
	if errors.Is(err, merkle.ErrProofInvalid) {
		return true
	}
	var se *ctclient.StatusError
	if errors.As(err, &se) {
		return se.Code == 404 || se.Code == 400
	}
	return false
}
