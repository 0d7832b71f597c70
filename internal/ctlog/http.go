package ctlog

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"ctrise/internal/drain"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// JSON wire types for the ct/v1 API (RFC 6962 Section 4). Field names
// match the RFC exactly so third-party clients interoperate. The server
// decodes AddChainRequest and marshals none of the responses: the Write*
// functions below emit each one's json.Encoder bytes directly, and the
// response types stay as what clients decode.

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

// GetEntriesResponse is the get-entries response.
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

// httpError maps a log error onto its ct/v1 status. The 429/503
// Retry-After hint is the running sequencer's interval, rounded up to
// whole seconds (floor 1s) by drain.Refuse, because
// the next sequencing cycle is when refused capacity — a refilled token
// bucket, a drained backlog — is most likely to exist again. A
// hardcoded 1s here made every well-behaved client probe a
// slow-sequencing log several times per cycle for nothing.
func (l *Log) httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		drain.Refuse(w, http.StatusTooManyRequests, err.Error(), time.Duration(l.seqInterval.Load()))
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
		drain.Refuse(w, http.StatusServiceUnavailable, err.Error(), time.Duration(l.seqInterval.Load()))
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

// ReadAddChain reads an add-chain body and returns its certificate,
// chain[0]. ctlogd and ctfront both parse add-chain with it. On failure
// it has already answered (see readChain).
func ReadAddChain(w http.ResponseWriter, r *http.Request) (cert []byte, ok bool) {
	chain, ok := readChain(w, r, 1)
	return chain[0], ok
}

// ReadAddPreChain reads an add-pre-chain body, chain = [tbs,
// issuerKeyHash]. ctlogd and ctfront both parse add-pre-chain with it.
// On failure it has already answered: as readChain does, or 400 for an
// issuer key hash that is not 32 bytes.
func ReadAddPreChain(w http.ResponseWriter, r *http.Request) (tbs []byte, issuerKeyHash [32]byte, ok bool) {
	chain, ok := readChain(w, r, 2)
	if ok && len(chain[1]) != len(issuerKeyHash) {
		http.Error(w, "ctlog: bad issuer key hash", http.StatusBadRequest)
		ok = false
	}
	copy(issuerKeyHash[:], chain[1])
	return chain[0], issuerKeyHash, ok
}

// readChain reads an add-chain / add-pre-chain body and base64-decodes
// its first need (at most 2) chain elements. On failure it has already
// answered: 413 for a body over maxAddChainBody, 400 for one that is not
// JSON, holds fewer than need chain elements or is not base64.
func readChain(w http.ResponseWriter, r *http.Request, need int) (chain [2][]byte, ok bool) {
	var req AddChainRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAddChainBody)).Decode(&req)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		http.Error(w, "ctlog: request body too large", http.StatusRequestEntityTooLarge)
		return chain, false
	}
	if err != nil || len(req.Chain) < need {
		http.Error(w, "ctlog: bad body (need "+strconv.Itoa(need)+" chain elements)", http.StatusBadRequest)
		return chain, false
	}
	for i := range need {
		if chain[i], err = base64.StdEncoding.DecodeString(req.Chain[i]); err != nil {
			http.Error(w, "ctlog: bad base64 in chain element "+strconv.Itoa(i), http.StatusBadRequest)
			return chain, false
		}
	}
	return chain, true
}

func (l *Log) handleAddChain(w http.ResponseWriter, r *http.Request) {
	cert, ok := ReadAddChain(w, r)
	if !ok {
		return
	}
	s, err := l.AddChain(cert)
	if err == nil {
		err = WriteSCT(w, s)
	}
	if err != nil {
		l.httpError(w, err)
	}
}

func (l *Log) handleAddPreChain(w http.ResponseWriter, r *http.Request) {
	tbs, ikh, ok := ReadAddPreChain(w, r)
	if !ok {
		return
	}
	s, err := l.AddPreChain(ikh, tbs)
	if err == nil {
		err = WriteSCT(w, s)
	}
	if err != nil {
		l.httpError(w, err)
	}
}

func (l *Log) handleGetSTH(w http.ResponseWriter, _ *http.Request) {
	if err := WriteGetSTH(w, l.STH()); err != nil {
		l.httpError(w, err)
	}
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
	WriteGetSTHConsistency(w, proof)
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
	WriteGetProofByHash(w, index, proof)
}

// handleGetEntries serves get-entries. Like production logs, an
// oversized [start, end] range is not an error and not served whole: it
// is clamped as GetEntries clamps it (to Config.MaxGetEntries, the
// published tree size and a sealed page's tile) and the response carries
// the resulting partial page, from which clients are expected to page
// the remainder (ctclient.Monitor.StreamEntries does). A sealed page is
// read into a pooled leafPage, syntax-checked (checkLeaves) and encoded
// straight from its leaf bytes, parsing no entry into an Entry of its
// own; the page goes back to the pool once written.
func (l *Log) handleGetEntries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	start, err1 := strconv.ParseUint(q.Get("start"), 10, 64)
	end, err2 := strconv.ParseUint(q.Get("end"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "ctlog: bad start/end", http.StatusBadRequest)
		return
	}
	pg := leafPagePool.Get().(*leafPage)
	tail, err := l.pub.Load().leafRange(start, end, uint64(l.cfg.MaxGetEntries), pg)
	switch {
	case err != nil:
	case tail != nil:
		err = WriteGetEntries(w, tail)
	default:
		if err = checkLeaves(start, pg.leaves); err == nil {
			writeLeaves(w, pg.leaves)
		}
	}
	pg.release()
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

// maxPooledPage is the largest page buffer pagePool and leafPagePool
// keep. A monitor's usual page (256 × ~1.4 KB of base64, read from ~1 KB
// records) fits several times over; a rare page of huge leaves is freed
// instead of pinning its buffer for good.
const maxPooledPage = 1 << 20

var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// leafPagePool holds the get-entries handler's sealed reads.
var leafPagePool = sync.Pool{New: func() any { return new(leafPage) }}

// release returns a handler's page to leafPagePool, unless its buffer
// has grown past maxPooledPage.
func (pg *leafPage) release() {
	if cap(pg.buf) <= maxPooledPage {
		leafPagePool.Put(pg)
	}
}

// WriteGetEntries writes entries to w as a complete get-entries
// response: byte for byte the body json.NewEncoder(w).Encode would
// produce for the equivalent GetEntriesResponse (entries as [], not
// null, when there are none), with Content-Length set. Each leaf_input
// is the entry's stamped MerkleTreeLeaf bytes where the log holds them;
// entries without their own stamped bytes are encoded from their
// fields. The leaves are collected once, then written by writeLeaves,
// the one encoder of that wire format (the handler hands it a sealed
// page's leaves directly).
//
// An error means an entry could not be encoded and nothing was written.
func WriteGetEntries(w http.ResponseWriter, entries []*Entry) error {
	leaves := make([][]byte, len(entries))
	for i, e := range entries {
		leaf, err := e.leafBytes()
		if err != nil {
			return err
		}
		leaves[i] = leaf
	}
	writeLeaves(w, leaves)
	return nil
}

// writeLeaves writes leaves as a complete get-entries response, each
// leaf a leaf_input. The page is sized exactly, base64-appended by
// appendBase64 (AVX2 where the CPU has it) into one pooled buffer and
// handed to w in a single Write with no per-entry allocation. A failed
// Write is not reported: the status line is already out and the
// connection will just break.
func writeLeaves(w http.ResponseWriter, leaves [][]byte) {
	size := len(entriesOpen) + len(leaves)*(len(entryOpen)+len(entryClose)) + max(len(leaves)-1, 0) + len(entriesClose)
	for _, leaf := range leaves {
		size += base64.StdEncoding.EncodedLen(len(leaf))
	}
	bp := pagePool.Get().(*[]byte)
	buf := append(slices.Grow((*bp)[:0], size), entriesOpen...)
	for i, leaf := range leaves {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, entryOpen...)
		buf = appendBase64(buf, leaf)
		buf = append(buf, entryClose...)
	}
	writeBody(w, append(buf, entriesClose...))
	if cap(buf) <= maxPooledPage {
		*bp = buf
		pagePool.Put(bp)
	}
}

// The other ct/v1 bodies are a few hundred bytes to a few kilobytes, so
// each writer below makes one buffer of an upper bound on its size
// rather than taking a pagePool buffer: a small body put back there
// would make the next get-entries page regrow it. Each is byte for byte
// what json.NewEncoder(w).Encode writes for the response struct named in
// its comment: constant fragments, numbers by strconv.AppendUint, every
// byte field a quoted appendBase64 string, then writeBody.

// bodyFrame bounds the constant fragments of any one small body, and
// maxUintLen is the longest decimal uint64.
const bodyFrame, maxUintLen = 96, 20

// WriteGetSTH writes sth as a complete get-sth response
// (GetSTHResponse). An error means the signature could not be serialized
// and nothing was written.
func WriteGetSTH(w http.ResponseWriter, sth SignedTreeHead) error {
	sig, err := sth.Sig.Serialize()
	if err != nil {
		return err
	}
	buf := make([]byte, 0, bodyFrame+2*maxUintLen+quotedLen(merkle.HashSize)+quotedLen(len(sig)))
	buf = append(buf, `{"tree_size":`...)
	buf = strconv.AppendUint(buf, sth.TreeHead.TreeSize, 10)
	buf = append(buf, `,"timestamp":`...)
	buf = strconv.AppendUint(buf, sth.TreeHead.Timestamp, 10)
	buf = append(buf, `,"sha256_root_hash":`...)
	buf = appendQuoted(buf, sth.TreeHead.RootHash[:])
	buf = append(buf, `,"tree_head_signature":`...)
	buf = appendQuoted(buf, sig)
	writeBody(w, append(buf, "}\n"...))
	return nil
}

// WriteGetSTHConsistency writes proof as a complete get-sth-consistency
// response (GetSTHConsistencyResponse; an empty proof is [], not null).
func WriteGetSTHConsistency(w http.ResponseWriter, proof []merkle.Hash) {
	buf := make([]byte, 0, bodyFrame+hashesLen(len(proof)))
	buf = append(buf, `{"consistency":`...)
	buf = appendHashes(buf, proof)
	writeBody(w, append(buf, "}\n"...))
}

// WriteGetProofByHash writes a leaf's index and audit path as a complete
// get-proof-by-hash response (GetProofByHashResponse; an empty path —
// a tree of one leaf — is [], not null).
func WriteGetProofByHash(w http.ResponseWriter, index uint64, path []merkle.Hash) {
	buf := make([]byte, 0, bodyFrame+maxUintLen+hashesLen(len(path)))
	buf = append(buf, `{"leaf_index":`...)
	buf = strconv.AppendUint(buf, index, 10)
	buf = append(buf, `,"audit_path":`...)
	buf = appendHashes(buf, path)
	writeBody(w, append(buf, "}\n"...))
}

// WriteSCT writes s as a complete add-chain / add-pre-chain response
// (AddChainResponse). An error means the signature could not be
// serialized and nothing was written.
func WriteSCT(w http.ResponseWriter, s *sct.SignedCertificateTimestamp) error {
	sig, err := s.Signature.Serialize()
	if err != nil {
		return err
	}
	buf := make([]byte, 0, bodyFrame+2*maxUintLen+quotedLen(len(s.LogID))+quotedLen(len(s.Extensions))+quotedLen(len(sig)))
	buf = append(buf, `{"sct_version":`...)
	buf = strconv.AppendUint(buf, uint64(s.SCTVersion), 10)
	buf = append(buf, `,"id":`...)
	buf = appendQuoted(buf, s.LogID[:])
	buf = append(buf, `,"timestamp":`...)
	buf = strconv.AppendUint(buf, s.Timestamp, 10)
	buf = append(buf, `,"extensions":`...)
	buf = appendQuoted(buf, s.Extensions)
	buf = append(buf, `,"signature":`...)
	buf = appendQuoted(buf, sig)
	writeBody(w, append(buf, "}\n"...))
	return nil
}

// writeBody sends a complete JSON body with its Content-Length, in one
// Write. A failed Write is not reported: the status line is already out
// and the connection will just break.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// appendQuoted appends b's standard base64 as a JSON string. The base64
// alphabet needs no JSON escaping.
func appendQuoted(buf, b []byte) []byte {
	buf = append(buf, '"')
	buf = appendBase64(buf, b)
	return append(buf, '"')
}

// quotedLen is how many bytes appendQuoted appends for n bytes.
func quotedLen(n int) int {
	return base64.StdEncoding.EncodedLen(n) + 2
}

// appendHashes appends hs as a JSON array of quoted base64 strings.
func appendHashes(buf []byte, hs []merkle.Hash) []byte {
	buf = append(buf, '[')
	for i, h := range hs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendQuoted(buf, h[:])
	}
	return append(buf, ']')
}

// hashesLen bounds what appendHashes appends for n hashes.
func hashesLen(n int) int {
	return 2 + n*(quotedLen(merkle.HashSize)+1)
}
