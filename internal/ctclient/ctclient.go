// Package ctclient implements an RFC 6962 log client and monitor: typed
// wrappers over the ct/v1 HTTP API, STH signature verification, gap-free
// entry harvesting, and a streaming mode that mimics CertStream — the
// near-real-time feed the paper's Section 6 identifies as one way third
// parties watch logs.
package ctclient

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// Errors returned by the client.
var (
	ErrHTTPStatus = errors.New("ctclient: unexpected HTTP status")
	ErrBadBody    = errors.New("ctclient: malformed response body")
)

// Misbehavior errors returned by Monitor.Poll when a log's new STH is
// incompatible with the previously verified one. Each maps to one of the
// auditor's alert classes; all of them mean the log is provably not the
// append-only structure it claims to be (or is showing this client a
// different history than it showed before), so none of them retry.
var (
	// ErrRollback means the log served a (validly signed) STH whose tree
	// size is smaller than one it already served: the log un-published
	// entries it had committed to.
	ErrRollback = errors.New("ctclient: log rolled back its STH")
	// ErrEquivocation means the log served two validly signed STHs with
	// the same tree size but different root hashes: two irreconcilable
	// views of the same history.
	ErrEquivocation = errors.New("ctclient: log equivocated (same size, different root)")
	// ErrFork means the log's new, larger STH is not an append-only
	// extension of the previously verified one: the consistency proof
	// between the two tree heads fails.
	ErrFork = errors.New("ctclient: log fork detected")
)

// StatusError is a non-200 HTTP response, carrying the status code so
// callers (the Monitor's retry loop in particular) can tell transient
// server-side failures (5xx) from permanent request errors (4xx). It
// matches errors.Is(err, ErrHTTPStatus).
type StatusError struct {
	Code int
	Path string
	// RetryAfter is the server's Retry-After hint, when the response
	// carried one (draining or overloaded servers send it with 503/429).
	// Zero means no hint; the Monitor's retry loop raises its backoff to
	// at least this.
	RetryAfter time.Duration
}

// Error formats the status like the pre-typed error did.
func (e *StatusError) Error() string {
	return fmt.Sprintf("%v: %d %s on %s", ErrHTTPStatus, e.Code, http.StatusText(e.Code), e.Path)
}

// Is keeps errors.Is(err, ErrHTTPStatus) working.
func (e *StatusError) Is(target error) bool { return target == ErrHTTPStatus }

// statusError builds the StatusError for a non-200 response, capturing
// the Retry-After hint. Only the delta-seconds form is parsed — the
// HTTP-date form never comes from this repo's servers.
func statusError(resp *http.Response, path string) *StatusError {
	e := &StatusError{Code: resp.StatusCode, Path: path}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// Client talks to one log over HTTP.
type Client struct {
	// BaseURL is the log's root URL (without /ct/v1).
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Verifier, if set, is used by VerifySTH and VerifySCT.
	Verifier sct.SCTVerifier
}

// New returns a client for the log at baseURL.
func New(baseURL string, verifier sct.SCTVerifier) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient, Verifier: verifier}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) getJSON(ctx context.Context, path string, query url.Values, out any) error {
	u := c.BaseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp, path)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return bodyError(path, err)
	}
	return nil
}

// bodyError classifies a response-body decode failure: a body cut off
// mid-stream (the server died, the connection reset) is a transport
// failure and keeps its cause reachable for the Monitor's transient-
// error retry; genuine JSON garbage is a permanent ErrBadBody.
func bodyError(path string, err error) error {
	var ne net.Error
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) || errors.As(err, &ne) {
		return fmt.Errorf("ctclient: truncated response on %s: %w", path, err)
	}
	return fmt.Errorf("%w: %v", ErrBadBody, err)
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		// The log's explicit backpressure signal: keep ErrOverloaded
		// reachable for errors.Is (callers model overload on it) while the
		// wrapped StatusError carries the server's Retry-After hint — the
		// sequencer-interval-derived backoff a well-behaved submitter
		// should apply before re-offering the load.
		return fmt.Errorf("%w: %w", ctlog.ErrOverloaded, statusError(resp, path))
	}
	if resp.StatusCode != http.StatusOK {
		return statusError(resp, path)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return bodyError(path, err)
	}
	return nil
}

// AddChain submits a final certificate and returns the log's SCT.
func (c *Client) AddChain(ctx context.Context, cert []byte) (*sct.SignedCertificateTimestamp, error) {
	var resp ctlog.AddChainResponse
	req := ctlog.AddChainRequest{Chain: []string{base64.StdEncoding.EncodeToString(cert)}}
	if err := c.postJSON(ctx, "/ct/v1/add-chain", req, &resp); err != nil {
		return nil, err
	}
	return responseToSCT(resp)
}

// AddPreChain submits a precertificate (TBS + issuer key hash).
func (c *Client) AddPreChain(ctx context.Context, tbs []byte, issuerKeyHash [32]byte) (*sct.SignedCertificateTimestamp, error) {
	var resp ctlog.AddChainResponse
	req := ctlog.AddChainRequest{Chain: []string{
		base64.StdEncoding.EncodeToString(tbs),
		base64.StdEncoding.EncodeToString(issuerKeyHash[:]),
	}}
	if err := c.postJSON(ctx, "/ct/v1/add-pre-chain", req, &resp); err != nil {
		return nil, err
	}
	return responseToSCT(resp)
}

func responseToSCT(resp ctlog.AddChainResponse) (*sct.SignedCertificateTimestamp, error) {
	idBytes, err := base64.StdEncoding.DecodeString(resp.ID)
	if err != nil || len(idBytes) != sct.LogIDSize {
		return nil, fmt.Errorf("%w: bad log id", ErrBadBody)
	}
	ext, err := base64.StdEncoding.DecodeString(resp.Extensions)
	if err != nil {
		return nil, fmt.Errorf("%w: bad extensions", ErrBadBody)
	}
	sigBytes, err := base64.StdEncoding.DecodeString(resp.Signature)
	if err != nil {
		return nil, fmt.Errorf("%w: bad signature", ErrBadBody)
	}
	ds, err := sct.ParseDigitallySigned(sigBytes)
	if err != nil {
		return nil, err
	}
	out := &sct.SignedCertificateTimestamp{
		SCTVersion: sct.Version(resp.SCTVersion),
		Timestamp:  resp.Timestamp,
		Extensions: ext,
		Signature:  ds,
	}
	copy(out.LogID[:], idBytes)
	return out, nil
}

// Submitter adapts a Client to the submission interface multi-log
// frontends consume (ctfront.Backend): a named remote log reachable
// over the ct/v1 API. The embedded Client's read methods stay
// available; AddPreChain is redeclared with the frontend's
// (issuerKeyHash, tbs) argument order.
type Submitter struct {
	*Client
	name string
}

// NewSubmitter returns a Submitter for the log at c under the given
// display name.
func NewSubmitter(name string, c *Client) *Submitter {
	return &Submitter{Client: c, name: name}
}

// Name identifies the remote log in frontend bundles and health
// reports.
func (s *Submitter) Name() string { return s.name }

// AddPreChain submits a precertificate, taking the issuer key hash
// first like ctlog.Log.AddPreChain does.
func (s *Submitter) AddPreChain(ctx context.Context, issuerKeyHash [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error) {
	return s.Client.AddPreChain(ctx, tbs, issuerKeyHash)
}

// GetSTH fetches and, if a verifier is configured, cryptographically
// verifies the latest signed tree head.
func (c *Client) GetSTH(ctx context.Context) (ctlog.SignedTreeHead, error) {
	var resp ctlog.GetSTHResponse
	if err := c.getJSON(ctx, "/ct/v1/get-sth", nil, &resp); err != nil {
		return ctlog.SignedTreeHead{}, err
	}
	rootBytes, err := base64.StdEncoding.DecodeString(resp.SHA256RootHash)
	if err != nil || len(rootBytes) != merkle.HashSize {
		return ctlog.SignedTreeHead{}, fmt.Errorf("%w: bad root hash", ErrBadBody)
	}
	sigBytes, err := base64.StdEncoding.DecodeString(resp.TreeHeadSignature)
	if err != nil {
		return ctlog.SignedTreeHead{}, fmt.Errorf("%w: bad signature", ErrBadBody)
	}
	ds, err := sct.ParseDigitallySigned(sigBytes)
	if err != nil {
		return ctlog.SignedTreeHead{}, err
	}
	sth := ctlog.SignedTreeHead{
		TreeHead: sct.TreeHead{Timestamp: resp.Timestamp, TreeSize: resp.TreeSize},
		Sig:      ds,
	}
	copy(sth.TreeHead.RootHash[:], rootBytes)
	if c.Verifier != nil {
		if err := c.Verifier.VerifyTreeHead(sth.TreeHead, sth.Sig); err != nil {
			return ctlog.SignedTreeHead{}, err
		}
	}
	return sth, nil
}

// GetEntries fetches entries [start, end] (inclusive) and parses the leaf
// inputs.
func (c *Client) GetEntries(ctx context.Context, start, end uint64) ([]*ctlog.Entry, error) {
	q := url.Values{}
	q.Set("start", fmt.Sprint(start))
	q.Set("end", fmt.Sprint(end))
	var resp ctlog.GetEntriesResponse
	if err := c.getJSON(ctx, "/ct/v1/get-entries", q, &resp); err != nil {
		return nil, err
	}
	out := make([]*ctlog.Entry, 0, len(resp.Entries))
	for i, le := range resp.Entries {
		leaf, err := base64.StdEncoding.DecodeString(le.LeafInput)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d leaf", ErrBadBody, i)
		}
		e, err := ctlog.ParseMerkleTreeLeaf(leaf)
		if err != nil {
			return nil, err
		}
		e.Index = start + uint64(i)
		out = append(out, e)
	}
	return out, nil
}

// GetConsistencyProof fetches the consistency proof between two sizes.
func (c *Client) GetConsistencyProof(ctx context.Context, first, second uint64) ([]merkle.Hash, error) {
	q := url.Values{}
	q.Set("first", fmt.Sprint(first))
	q.Set("second", fmt.Sprint(second))
	var resp ctlog.GetSTHConsistencyResponse
	if err := c.getJSON(ctx, "/ct/v1/get-sth-consistency", q, &resp); err != nil {
		return nil, err
	}
	return decodeHashes(resp.Consistency)
}

// GetProofByHash fetches the inclusion proof for a leaf hash.
func (c *Client) GetProofByHash(ctx context.Context, leafHash merkle.Hash, treeSize uint64) (uint64, []merkle.Hash, error) {
	q := url.Values{}
	q.Set("hash", base64.StdEncoding.EncodeToString(leafHash[:]))
	q.Set("tree_size", fmt.Sprint(treeSize))
	var resp ctlog.GetProofByHashResponse
	if err := c.getJSON(ctx, "/ct/v1/get-proof-by-hash", q, &resp); err != nil {
		return 0, nil, err
	}
	proof, err := decodeHashes(resp.AuditPath)
	return resp.LeafIndex, proof, err
}

func decodeHashes(in []string) ([]merkle.Hash, error) {
	out := make([]merkle.Hash, len(in))
	for i, s := range in {
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil || len(b) != merkle.HashSize {
			return nil, fmt.Errorf("%w: hash %d", ErrBadBody, i)
		}
		copy(out[i][:], b)
	}
	return out, nil
}

// VerifyInclusion proves that entry is included in the tree described by
// sth, fetching the audit path from the log.
func (c *Client) VerifyInclusion(ctx context.Context, entry *ctlog.Entry, sth ctlog.SignedTreeHead) error {
	leafHash, err := entry.LeafHash()
	if err != nil {
		return err
	}
	index, proof, err := c.GetProofByHash(ctx, leafHash, sth.TreeHead.TreeSize)
	if err != nil {
		return err
	}
	return merkle.VerifyInclusion(leafHash, index, sth.TreeHead.TreeSize, proof, merkle.Hash(sth.TreeHead.RootHash))
}

// Monitor tails a log, fetching new entries as the STH advances, and
// checks consistency between successive tree heads. It is the building
// block for both the Section 2 harvester and the Section 6 attacker
// agents.
type Monitor struct {
	Client *Client
	// Batch caps the entries requested per get-entries call. 0 requests
	// the whole remaining range in one call and lets the server's page
	// limit decide the batch size.
	Batch uint64
	// MaxRetries bounds re-attempts after a transient fetch failure — a
	// 5xx status or a transport-level error, the blips a long-running
	// harvest rides out rather than dies on. Each failed call is
	// retried up to MaxRetries times with jittered exponential backoff
	// before the error propagates; permanent errors (4xx, malformed
	// bodies, failed proofs, context cancellation) never retry. 0
	// disables retrying. NewMonitor defaults to 3.
	MaxRetries int
	// RetryBase is the backoff before the first retry; it doubles per
	// further attempt, each with up to 50% random jitter added so a
	// fleet of monitors does not re-converge on a struggling log in
	// lockstep. NewMonitor defaults to 100ms.
	RetryBase time.Duration

	// mu guards the cursor, head and entry count below, so the accessors
	// are safe to call while a Poll runs (an auditor's /metrics scrape or
	// gossip beside its poll loop). Poll itself is not reentrant: one
	// caller polls a Monitor at a time.
	mu      sync.Mutex
	lastSTH *ctlog.SignedTreeHead
	nextIdx uint64
	entries uint64
}

// NewMonitor returns a monitor starting from index 0.
func NewMonitor(client *Client) *Monitor {
	return &Monitor{Client: client, Batch: 256, MaxRetries: 3, RetryBase: 100 * time.Millisecond}
}

// transientError reports whether a fetch failure is worth retrying:
// server-side 5xx statuses and transport errors are; caller-side 4xx,
// malformed bodies, verification failures, and context cancellation
// are not. ErrOverloaded (429) is deliberately not transient here —
// it is the log's explicit backpressure signal and callers model it.
func transientError(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true // response body cut off mid-stream
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// maxRetryBackoff caps the Monitor's per-attempt retry sleep, so a
// large MaxRetries budget bounds total wait at roughly
// MaxRetries × maxRetryBackoff instead of doubling without limit.
const maxRetryBackoff = 30 * time.Second

// retry runs fn, re-attempting transient failures up to MaxRetries
// times with jittered exponential backoff (RetryBase doubling per
// attempt, capped at maxRetryBackoff). A server that sent a Retry-After
// hint with its failure (a draining backend's 503) raises the backoff
// floor to the hinted wait — the server knows its own restart schedule
// better than the client's doubling does. The sleep respects ctx; on
// cancellation mid-backoff the last fetch error is returned (the
// caller's next ctx check reports the cancellation).
func (m *Monitor) retry(ctx context.Context, fn func() error) error {
	base := m.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || attempt >= m.MaxRetries || !transientError(err) {
			return err
		}
		d := base << attempt
		if d <= 0 || d > maxRetryBackoff {
			// Cap reached — or the shift overflowed past it.
			d = maxRetryBackoff
		}
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > d {
			d = min(se.RetryAfter, maxRetryBackoff)
		}
		d += time.Duration(rand.Int63n(int64(d)/2 + 1))
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
}

// NewMonitorAt returns a monitor that resumes from entry index next —
// the resume index a previous StreamEntries returned, or the cursor an
// auditor's verified-STH chain recorded — so a restarted monitor
// continues gap-free instead of re-fetching (and re-counting) the prefix
// it already consumed. The first Poll verifies consistency against the
// log's current STH as usual; cross-restart fork and rollback detection
// additionally needs the persisted tree head, which the auditor seeds
// with SetLastSTH next to this cursor.
func NewMonitorAt(client *Client, next uint64) *Monitor {
	m := NewMonitor(client)
	m.nextIdx = next
	return m
}

// NextIndex returns the first entry index the monitor has not yet
// delivered — the cursor the auditor persists in its verified-STH chain.
func (m *Monitor) NextIndex() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextIdx
}

// LastSTH returns the most recently verified signed tree head, or nil if
// no Poll has completed yet. Auditors persist it (with NextIndex) as
// their verified-chain head.
func (m *Monitor) LastSTH() *ctlog.SignedTreeHead {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSTH
}

// SetLastSTH seeds the monitor with a previously verified tree head —
// the head of a persisted verified-STH chain — so the first Poll after a
// restart checks consistency against the durable audit history instead
// of blindly adopting whatever the log serves now. Cross-restart fork
// and rollback detection both hang off this anchor.
func (m *Monitor) SetLastSTH(sth ctlog.SignedTreeHead) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastSTH = &sth
}

// EntriesSeen reports how many entries the monitor has consumed.
func (m *Monitor) EntriesSeen() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries
}

// StreamEntries fetches entries [start, end] (inclusive) over HTTP and
// delivers them to fn strictly in index order, mirroring
// ctlog.Log.StreamEntries semantics for a remote log. Requests are
// paged: each get-entries call asks for at most Batch entries (the
// whole remainder when Batch is 0), and when the server clamps an
// oversized range to its own page limit and returns a partial page —
// as real logs do — the next request resumes from the first undelivered
// index, so the walk is gap-free at any client/server page-size
// combination. A response that skips indices is rejected rather than
// silently accepted.
//
// ctx is checked between entries, not just between pages, so a canceled
// harvest stops mid-page. The returned index is the first index NOT
// delivered (start + number of entries fn saw), letting callers resume.
func (m *Monitor) StreamEntries(ctx context.Context, start, end uint64, fn func(*ctlog.Entry) error) (uint64, error) {
	next := start
	for next <= end {
		if err := ctx.Err(); err != nil {
			return next, err
		}
		reqEnd := end
		if m.Batch > 0 && next+m.Batch-1 < end {
			reqEnd = next + m.Batch - 1
		}
		var batch []*ctlog.Entry
		if err := m.retry(ctx, func() (err error) {
			batch, err = m.Client.GetEntries(ctx, next, reqEnd)
			return err
		}); err != nil {
			return next, err
		}
		if len(batch) == 0 {
			return next, fmt.Errorf("%w: empty batch at %d", ErrBadBody, next)
		}
		for _, e := range batch {
			if err := ctx.Err(); err != nil {
				return next, err
			}
			// Gap first: a response that does not continue at the next
			// expected index is a protocol violation, whether the
			// stray indices land inside or beyond the requested range.
			if e.Index != next {
				return next, fmt.Errorf("%w: gap in entries: got %d, want %d", ErrBadBody, e.Index, next)
			}
			if e.Index > end {
				// An over-generous server returned entries past the
				// requested range; never deliver what the caller did
				// not ask for.
				return next, nil
			}
			if err := fn(e); err != nil {
				return next, err
			}
			next = e.Index + 1
		}
	}
	return next, nil
}

// Poll fetches the current STH and streams any new entries to fn in order.
// When a previous STH exists, the new head is checked against it before
// any entries are consumed: a smaller tree size is ErrRollback, the same
// size under a different root is ErrEquivocation, and a larger size whose
// consistency proof fails is ErrFork — a misbehaving log is detected
// rather than followed. An STH whose signature fails verification (the
// Client's Verifier) is rejected by GetSTH before any of this runs, so a
// log cannot buy acceptance of a bogus head by streaming entries cleanly.
func (m *Monitor) Poll(ctx context.Context, fn func(*ctlog.Entry) error) error {
	var sth ctlog.SignedTreeHead
	if err := m.retry(ctx, func() (err error) {
		sth, err = m.Client.GetSTH(ctx)
		return err
	}); err != nil {
		return err
	}
	m.mu.Lock()
	lastSTH, nextIdx := m.lastSTH, m.nextIdx
	m.mu.Unlock()
	if lastSTH != nil {
		last := lastSTH.TreeHead
		switch {
		case sth.TreeHead.TreeSize < last.TreeSize:
			return fmt.Errorf("%w: had size %d, got %d", ErrRollback, last.TreeSize, sth.TreeHead.TreeSize)
		case sth.TreeHead.TreeSize == last.TreeSize:
			if sth.TreeHead.RootHash != last.RootHash {
				return fmt.Errorf("%w: size %d, root %x then %x",
					ErrEquivocation, last.TreeSize, last.RootHash, sth.TreeHead.RootHash)
			}
			// Same head, possibly republished under a fresher timestamp:
			// nothing new to verify or stream.
		case last.TreeSize > 0:
			// Consistency with the previous head. A previous size of 0 is
			// trivially consistent with anything, and logs reject
			// get-sth-consistency with first=0, so no proof is requested
			// then.
			var proof []merkle.Hash
			if err := m.retry(ctx, func() (err error) {
				proof, err = m.Client.GetConsistencyProof(ctx, last.TreeSize, sth.TreeHead.TreeSize)
				return err
			}); err != nil {
				return err
			}
			if err := merkle.VerifyConsistency(
				last.TreeSize, sth.TreeHead.TreeSize,
				merkle.Hash(last.RootHash), merkle.Hash(sth.TreeHead.RootHash),
				proof,
			); err != nil {
				return fmt.Errorf("%w: %v", ErrFork, err)
			}
		}
	}
	if sth.TreeHead.TreeSize > nextIdx {
		next, err := m.StreamEntries(ctx, nextIdx, sth.TreeHead.TreeSize-1, func(e *ctlog.Entry) error {
			if err := fn(e); err != nil {
				return err
			}
			m.mu.Lock()
			m.entries++
			m.mu.Unlock()
			return nil
		})
		// Record progress even on error so a retried Poll resumes from
		// the first undelivered entry instead of re-fetching.
		m.mu.Lock()
		m.nextIdx = next
		m.mu.Unlock()
		if err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.lastSTH = &sth
	m.mu.Unlock()
	return nil
}

// Stream polls the log every interval until ctx is done, delivering new
// entries to fn. This is the CertStream-like near-real-time mode.
func (m *Monitor) Stream(ctx context.Context, interval time.Duration, fn func(*ctlog.Entry) error) error {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if err := m.Poll(ctx, fn); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
