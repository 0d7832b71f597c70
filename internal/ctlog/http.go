package ctlog

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// JSON wire types for the ct/v1 API (RFC 6962 Section 4). Field names
// match the RFC exactly so third-party clients interoperate.

// AddChainRequest is the body of add-chain and add-pre-chain. For
// add-pre-chain in this implementation, chain[0] is the defanged TBS and
// chain[1] is the issuer key hash (32 bytes); real logs derive the key
// hash from the submitted issuer certificate.
type AddChainRequest struct {
	Chain []string `json:"chain"`
}

// AddChainResponse is the SCT returned by add-chain / add-pre-chain.
type AddChainResponse struct {
	SCTVersion uint8  `json:"sct_version"`
	ID         string `json:"id"`
	Timestamp  uint64 `json:"timestamp"`
	Extensions string `json:"extensions"`
	Signature  string `json:"signature"`
}

// GetSTHResponse is the get-sth response.
type GetSTHResponse struct {
	TreeSize          uint64 `json:"tree_size"`
	Timestamp         uint64 `json:"timestamp"`
	SHA256RootHash    string `json:"sha256_root_hash"`
	TreeHeadSignature string `json:"tree_head_signature"`
}

// GetSTHConsistencyResponse is the get-sth-consistency response.
type GetSTHConsistencyResponse struct {
	Consistency []string `json:"consistency"`
}

// GetProofByHashResponse is the get-proof-by-hash response.
type GetProofByHashResponse struct {
	LeafIndex uint64   `json:"leaf_index"`
	AuditPath []string `json:"audit_path"`
}

// LeafEntry is one element of get-entries.
type LeafEntry struct {
	LeafInput string `json:"leaf_input"`
	ExtraData string `json:"extra_data"`
}

// GetEntriesResponse is the get-entries response as clients decode it.
// The server does not marshal it: WriteGetEntries emits the same bytes
// directly from the entries' leaf encodings.
type GetEntriesResponse struct {
	Entries []LeafEntry `json:"entries"`
}

// Handler returns an http.Handler serving the ct/v1 API for the log.
func (l *Log) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ct/v1/add-chain", l.handleAddChain)
	mux.HandleFunc("POST /ct/v1/add-pre-chain", l.handleAddPreChain)
	mux.HandleFunc("GET /ct/v1/get-sth", l.handleGetSTH)
	mux.HandleFunc("GET /ct/v1/get-sth-consistency", l.handleGetSTHConsistency)
	mux.HandleFunc("GET /ct/v1/get-proof-by-hash", l.handleGetProofByHash)
	mux.HandleFunc("GET /ct/v1/get-entries", l.handleGetEntries)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will just break.
		return
	}
}

// httpError maps a log error onto its ct/v1 status. The 429/503
// Retry-After hint is the log's RetryAfterSeconds: the running
// sequencer's interval rounded up to whole seconds (floor 1s), because
// the next sequencing cycle is when refused capacity — a refilled token
// bucket, a drained backlog — is most likely to exist again. A
// hardcoded 1s here made every well-behaved client probe a
// slow-sequencing log several times per cycle for nothing.
func (l *Log) httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(l.RetryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBadRange), errors.Is(err, merkle.ErrSizeOutOfRange),
		errors.Is(err, merkle.ErrIndexOutOfRange), errors.Is(err, merkle.ErrEmptyRange):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, ErrPersistence):
		// The durable store failed; the condition is sticky until the
		// operator restarts the log, but 503 (not 500) tells well-behaved
		// submitters this is the log's capacity to accept, not a protocol
		// error on their side — and Retry-After tells them to probe again
		// rather than hot-loop while the operator intervenes.
		w.Header().Set("Retry-After", strconv.Itoa(l.RetryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// maxAddChainBody caps an add-chain / add-pre-chain request body. The
// largest certificate a MerkleTreeLeaf can carry is a uint24 vector, so
// the cap is that many bytes base64-expanded plus headroom for the JSON
// framing and add-pre-chain's 44-character issuer key hash; anything
// longer could never be logged and is refused unread.
const maxAddChainBody = (1<<24-1+2)/3*4 + 4096

// decodeAddChain reads an add-chain / add-pre-chain body into req. On
// failure it has already answered: 413 for a body over maxAddChainBody,
// 400 for one that is not JSON or holds fewer than need chain elements.
func decodeAddChain(w http.ResponseWriter, r *http.Request, req *AddChainRequest, need int) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAddChainBody)).Decode(req)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		http.Error(w, "ctlog: request body too large", http.StatusRequestEntityTooLarge)
		return false
	}
	if err != nil || len(req.Chain) < need {
		http.Error(w, "ctlog: bad body (need "+strconv.Itoa(need)+" chain elements)", http.StatusBadRequest)
		return false
	}
	return true
}

func (l *Log) handleAddChain(w http.ResponseWriter, r *http.Request) {
	var req AddChainRequest
	if !decodeAddChain(w, r, &req, 1) {
		return
	}
	cert, err := base64.StdEncoding.DecodeString(req.Chain[0])
	if err != nil {
		http.Error(w, "ctlog: bad base64 in chain", http.StatusBadRequest)
		return
	}
	s, err := l.AddChain(cert)
	if err != nil {
		l.httpError(w, err)
		return
	}
	writeJSON(w, sctToResponse(s))
}

// handleAddPreChain takes chain = [tbs, issuerKeyHash].
func (l *Log) handleAddPreChain(w http.ResponseWriter, r *http.Request) {
	var req AddChainRequest
	if !decodeAddChain(w, r, &req, 2) {
		return
	}
	tbs, err := base64.StdEncoding.DecodeString(req.Chain[0])
	if err != nil {
		http.Error(w, "ctlog: bad base64 tbs", http.StatusBadRequest)
		return
	}
	ikhBytes, err := base64.StdEncoding.DecodeString(req.Chain[1])
	if err != nil || len(ikhBytes) != 32 {
		http.Error(w, "ctlog: bad issuer key hash", http.StatusBadRequest)
		return
	}
	var ikh [32]byte
	copy(ikh[:], ikhBytes)
	s, err := l.AddPreChain(ikh, tbs)
	if err != nil {
		l.httpError(w, err)
		return
	}
	writeJSON(w, sctToResponse(s))
}

func sctToResponse(s *sct.SignedCertificateTimestamp) AddChainResponse {
	sig, err := s.Signature.Serialize()
	if err != nil {
		// The signature was produced locally and always fits; a failure
		// here indicates memory corruption, so fail loudly.
		panic(err)
	}
	return AddChainResponse{
		SCTVersion: uint8(s.SCTVersion),
		ID:         base64.StdEncoding.EncodeToString(s.LogID[:]),
		Timestamp:  s.Timestamp,
		Extensions: base64.StdEncoding.EncodeToString(s.Extensions),
		Signature:  base64.StdEncoding.EncodeToString(sig),
	}
}

func (l *Log) handleGetSTH(w http.ResponseWriter, _ *http.Request) {
	sth := l.STH()
	sig, err := sth.Sig.Serialize()
	if err != nil {
		l.httpError(w, err)
		return
	}
	writeJSON(w, GetSTHResponse{
		TreeSize:          sth.TreeHead.TreeSize,
		Timestamp:         sth.TreeHead.Timestamp,
		SHA256RootHash:    base64.StdEncoding.EncodeToString(sth.TreeHead.RootHash[:]),
		TreeHeadSignature: base64.StdEncoding.EncodeToString(sig),
	})
}

func (l *Log) handleGetSTHConsistency(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	first, err1 := strconv.ParseUint(q.Get("first"), 10, 64)
	second, err2 := strconv.ParseUint(q.Get("second"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "ctlog: bad first/second", http.StatusBadRequest)
		return
	}
	proof, err := l.GetConsistencyProof(first, second)
	if err != nil {
		l.httpError(w, err)
		return
	}
	writeJSON(w, GetSTHConsistencyResponse{Consistency: encodeHashes(proof)})
}

func (l *Log) handleGetProofByHash(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	treeSize, err := strconv.ParseUint(q.Get("tree_size"), 10, 64)
	if err != nil {
		http.Error(w, "ctlog: bad tree_size", http.StatusBadRequest)
		return
	}
	hashBytes, err := base64.StdEncoding.DecodeString(q.Get("hash"))
	if err != nil || len(hashBytes) != merkle.HashSize {
		http.Error(w, "ctlog: bad hash", http.StatusBadRequest)
		return
	}
	var h merkle.Hash
	copy(h[:], hashBytes)
	index, proof, err := l.GetProofByHash(h, treeSize)
	if err != nil {
		l.httpError(w, err)
		return
	}
	writeJSON(w, GetProofByHashResponse{LeafIndex: index, AuditPath: encodeHashes(proof)})
}

// handleGetEntries serves get-entries. Like production logs, an
// oversized [start, end] range is not an error and not served whole:
// GetEntries clamps it to Config.MaxGetEntries (and to the published
// tree size) and the response carries the resulting partial page, from
// which clients are expected to page the remainder
// (ctclient.Monitor.StreamEntries does).
func (l *Log) handleGetEntries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	start, err1 := strconv.ParseUint(q.Get("start"), 10, 64)
	end, err2 := strconv.ParseUint(q.Get("end"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "ctlog: bad start/end", http.StatusBadRequest)
		return
	}
	entries, err := l.GetEntries(start, end)
	if err == nil {
		err = WriteGetEntries(w, entries)
	}
	if err != nil {
		l.httpError(w, err)
	}
}

// The fixed pieces of a get-entries body, spelled exactly as
// json.Encoder renders GetEntriesResponse. extra_data is always empty:
// the log stores no chains.
const (
	entriesOpen  = `{"entries":[`
	entryOpen    = `{"leaf_input":"`
	entryClose   = `","extra_data":""}`
	entriesClose = "]}\n"
)

// maxPooledPage is the largest page buffer pagePool keeps. A monitor's
// usual page (256 × ~1.4 KB of base64) fits several times over; a rare
// page of huge leaves is freed instead of pinning its buffer for good.
const maxPooledPage = 1 << 20

var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteGetEntries writes entries to w as a complete get-entries
// response: byte for byte the body json.NewEncoder(w).Encode would
// produce for the equivalent GetEntriesResponse (entries as [], not
// null, when there are none), with Content-Length set. It is the one
// encoder of that wire format. Each leaf_input is the entry's stamped
// MerkleTreeLeaf bytes where the log holds them, so a page is sized
// exactly, base64-appended by appendBase64 (the stdlib's bytes at about
// twice its speed) into one pooled buffer and handed to w in a single
// Write with no per-entry allocation; entries without their own stamped
// bytes are encoded from their fields.
//
// An error means an entry could not be encoded and nothing was written.
// A failed Write is not reported: the status line is already out and
// the connection will just break.
func WriteGetEntries(w http.ResponseWriter, entries []*Entry) error {
	size := len(entriesOpen) + len(entries)*(len(entryOpen)+len(entryClose)) + max(len(entries)-1, 0) + len(entriesClose)
	for _, e := range entries {
		leaf, err := e.leafBytes()
		if err != nil {
			return err
		}
		size += base64.StdEncoding.EncodedLen(len(leaf))
	}
	bp := pagePool.Get().(*[]byte)
	buf := append(slices.Grow((*bp)[:0], size), entriesOpen...)
	for i, e := range entries {
		if i > 0 {
			buf = append(buf, ',')
		}
		leaf, err := e.leafBytes()
		if err != nil {
			return err
		}
		buf = append(buf, entryOpen...)
		buf = appendBase64(buf, leaf)
		buf = append(buf, entryClose...)
	}
	buf = append(buf, entriesClose...)

	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
	if cap(buf) <= maxPooledPage {
		*bp = buf
		pagePool.Put(bp)
	}
	return nil
}

func encodeHashes(hs []merkle.Hash) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = base64.StdEncoding.EncodeToString(h[:])
	}
	return out
}
