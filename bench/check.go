package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// conn is one client connection to a ct/v1 server: its own transport
// capped at a single socket, so "2 connections" means two sockets.
type conn struct {
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base: base,
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

func (c *conn) do(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %.120s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	return body, nil
}

func (c *conn) get(pathQuery string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+pathQuery, nil)
	if err != nil {
		return err
	}
	body, err := c.do(req)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// The request shapes, shared by the socket client here and the traced
// run's in-process requests.

const addChainPath = "/ct/v1/add-chain"

func addChainBody(cert []byte) []byte {
	body := make([]byte, 0, 16+base64.StdEncoding.EncodedLen(len(cert)))
	body = append(body, `{"chain":["`...)
	body = base64.StdEncoding.AppendEncode(body, cert)
	return append(body, `"]}`...)
}

func proofPath(h merkle.Hash, treeSize uint64) string {
	return fmt.Sprintf("/ct/v1/get-proof-by-hash?hash=%s&tree_size=%d",
		url.QueryEscape(base64.StdEncoding.EncodeToString(h[:])), treeSize)
}

func consistencyPath(first, second uint64) string {
	return fmt.Sprintf("/ct/v1/get-sth-consistency?first=%d&second=%d", first, second)
}

func entriesPath(start, end uint64) string {
	return fmt.Sprintf("/ct/v1/get-entries?start=%d&end=%d", start, end)
}

func (c *conn) addChain(cert []byte) (ctlog.AddChainResponse, error) {
	var out ctlog.AddChainResponse
	req, err := http.NewRequest(http.MethodPost, c.base+addChainPath, bytes.NewReader(addChainBody(cert)))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(resp, &out)
}

func (c *conn) getSTH() (ctlog.GetSTHResponse, error) {
	var out ctlog.GetSTHResponse
	return out, c.get("/ct/v1/get-sth", &out)
}

func (c *conn) proofByHash(h merkle.Hash, treeSize uint64) (ctlog.GetProofByHashResponse, error) {
	var out ctlog.GetProofByHashResponse
	return out, c.get(proofPath(h, treeSize), &out)
}

func (c *conn) consistency(first, second uint64) (ctlog.GetSTHConsistencyResponse, error) {
	var out ctlog.GetSTHConsistencyResponse
	return out, c.get(consistencyPath(first, second), &out)
}

// entries returns the raw get-entries body: most pages are only
// counted, and parsing 350 KB of JSON on the cores the server shares
// would make the client the thing being measured.
func (c *conn) entries(start, end uint64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+entriesPath(start, end), nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// The checkers. Each takes a decoded response and what the client knows
// independently of the log, and returns an error for a wrong answer.

var errWrong = errors.New("wrong answer")

func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// treeHead is a get-sth response in checkable form.
type treeHead struct {
	size      uint64
	timestamp uint64
	root      merkle.Hash
	sig       string // base64 as served: the identity of a distinct STH
}

func decodeHashes(in []string) ([]merkle.Hash, error) {
	out := make([]merkle.Hash, len(in))
	for i, s := range in {
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil || len(b) != merkle.HashSize {
			return nil, wrong("hash %d is not 32 base64 bytes", i)
		}
		copy(out[i][:], b)
	}
	return out, nil
}

// checkSTH verifies a tree head's signature under the log's key.
func checkSTH(v *sct.Verifier, r ctlog.GetSTHResponse) (*treeHead, error) {
	roots, err := decodeHashes([]string{r.SHA256RootHash})
	if err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(r.TreeHeadSignature)
	if err != nil {
		return nil, wrong("STH signature is not base64")
	}
	sig, err := sct.ParseDigitallySigned(raw)
	if err != nil {
		return nil, wrong("STH signature: %v", err)
	}
	th := sct.TreeHead{Timestamp: r.Timestamp, TreeSize: r.TreeSize, RootHash: roots[0]}
	if err := v.VerifyTreeHead(th, sig); err != nil {
		return nil, wrong("STH at size %d: %v", r.TreeSize, err)
	}
	return &treeHead{r.TreeSize, r.Timestamp, roots[0], r.TreeHeadSignature}, nil
}

// checkSCT verifies that an add-chain response is this log's signature
// over cert at the returned timestamp.
func checkSCT(v *sct.Verifier, cert []byte, r ctlog.AddChainResponse) error {
	id, err1 := base64.StdEncoding.DecodeString(r.ID)
	ext, err2 := base64.StdEncoding.DecodeString(r.Extensions)
	raw, err3 := base64.StdEncoding.DecodeString(r.Signature)
	if err1 != nil || err2 != nil || err3 != nil || len(id) != sct.LogIDSize {
		return wrong("SCT fields are not base64")
	}
	sig, err := sct.ParseDigitallySigned(raw)
	if err != nil {
		return wrong("SCT signature: %v", err)
	}
	s := &sct.SignedCertificateTimestamp{
		SCTVersion: sct.Version(r.SCTVersion),
		LogID:      sct.LogID(id),
		Timestamp:  r.Timestamp,
		Extensions: ext,
		Signature:  sig,
	}
	if err := v.VerifySCT(s, sct.X509Entry(cert)); err != nil {
		return wrong("SCT: %v", err)
	}
	return nil
}

// checkInclusion verifies an audit path for leaf against a verified head.
func checkInclusion(leaf merkle.Hash, r ctlog.GetProofByHashResponse, head *treeHead) error {
	path, err := decodeHashes(r.AuditPath)
	if err != nil {
		return err
	}
	if err := merkle.VerifyInclusion(leaf, r.LeafIndex, head.size, path, head.root); err != nil {
		return wrong("inclusion of leaf %d in %d: %v", r.LeafIndex, head.size, err)
	}
	return nil
}

// checkConsistency verifies a consistency proof from (first, firstRoot),
// known from the reference tree, to a verified head.
func checkConsistency(first uint64, firstRoot merkle.Hash, r ctlog.GetSTHConsistencyResponse, head *treeHead) error {
	proof, err := decodeHashes(r.Consistency)
	if err != nil {
		return err
	}
	if err := merkle.VerifyConsistency(first, head.size, firstRoot, head.root, proof); err != nil {
		return wrong("consistency %d→%d: %v", first, head.size, err)
	}
	return nil
}

var leafInputKey = []byte(`"leaf_input"`)

// countEntries is the cheap check every get-entries page gets: the
// body is the expected JSON shape and holds this many entries.
func countEntries(body []byte) (int, error) {
	if !bytes.HasPrefix(body, []byte(`{"entries":[`)) {
		return 0, wrong("get-entries body does not start with an entries array")
	}
	return bytes.Count(body, leafInputKey), nil
}

// checkEntries is the full check a sampled page gets: parse it, hash
// every leaf_input, and compare with the hashes the client recorded
// when it built the log. want may be shorter than the page when the
// page runs past what the client knows; the overlap is checked.
func checkEntries(body []byte, want []merkle.Hash) error {
	var page ctlog.GetEntriesResponse
	if err := json.Unmarshal(body, &page); err != nil {
		return wrong("get-entries body: %v", err)
	}
	for i, e := range page.Entries {
		if i >= len(want) {
			break
		}
		leaf, err := base64.StdEncoding.DecodeString(e.LeafInput)
		if err != nil {
			return wrong("entry %d leaf_input is not base64", i)
		}
		if merkle.HashLeaf(leaf) != want[i] {
			return wrong("entry %d of the page does not hash to the leaf the log was built with", i)
		}
	}
	return nil
}
