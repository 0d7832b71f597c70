package chaos

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// Fault selects the misbehavior a chaos Log currently mounts. Exactly
// one fault is active at a time; SetFault switches between them live,
// so a test can grow an honest history first and then turn the log.
type Fault int

// Fault modes.
const (
	// FaultNone serves the wrapped honest log faithfully.
	FaultNone Fault = iota
	// FaultRollback re-serves the oldest recorded STH — a head the log
	// signed earlier, covering a smaller tree. Signature-valid, so only
	// a monitor that remembers the newer head catches it.
	FaultRollback
	// FaultEquivocate signs a fresh head over the shadow root at the
	// honest tree size: same size, different root. Proofs and entries
	// stay honest; the lie is confined to the head.
	FaultEquivocate
	// FaultFork serves the shadow view — head, proofs, and entries — to
	// every client. A monitor holding verified honest history sees a
	// consistency proof that cannot link its old root to the new one.
	FaultFork
	// FaultSplitView serves the honest view by default and the shadow
	// view to clients sending "X-Chaos-View: shadow". Each client's
	// view is internally consistent; only cross-client gossip exposes
	// the split.
	FaultSplitView
	// FaultWithhold pins the head at the size captured when the fault
	// was enabled while re-signing it with fresh timestamps: staged
	// submissions hold SCTs whose merge never happens — an MMD
	// violation visible only to a monitor tracking its own SCTs.
	FaultWithhold
	// FaultCorruptEntries serves get-entries bodies with every entry
	// tampered (one bit of the certificate flipped). The head and the
	// proofs are honest, so the corruption surfaces as leaf hashes the
	// log cannot prove included.
	FaultCorruptEntries
	// FaultBadSignature serves the honest head with one signature byte
	// flipped — a head the log never signed. The tree data is all
	// honest; only signature verification catches it.
	FaultBadSignature
)

// String names the fault for test diagnostics and golden files.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultRollback:
		return "rollback"
	case FaultEquivocate:
		return "equivocate"
	case FaultFork:
		return "fork"
	case FaultSplitView:
		return "split-view"
	case FaultWithhold:
		return "withhold"
	case FaultCorruptEntries:
		return "corrupt-entries"
	case FaultBadSignature:
		return "bad-signature"
	default:
		return "unknown"
	}
}

// View selection for FaultSplitView.
const (
	// ViewHeader is the request header that selects a view.
	ViewHeader = "X-Chaos-View"
	// ViewShadow is the header value that selects the forked view.
	ViewShadow = "shadow"
)

// ViewTransport returns a RoundTripper that stamps every request with
// ViewHeader: view, pinning one client (one auditor in a split-view
// experiment) to the chosen side of the fork. base defaults to
// http.DefaultTransport.
func ViewTransport(base http.RoundTripper, view string) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return viewTransport{base: base, view: view}
}

type viewTransport struct {
	base http.RoundTripper
	view string
}

func (vt viewTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(ViewHeader, vt.view)
	return vt.base.RoundTrip(req)
}

// Log wraps an honest *ctlog.Log and serves the ct/v1 API while
// misbehaving per its current Fault. Every forged head is signed with
// the log's real signer — the same key the honest log uses — so forged
// views pass signature verification exactly as a compromised log's
// would, and only tree-level auditing (consistency, inclusion, memory,
// gossip) can catch them.
//
// The shadow view is a real second Merkle tree, lazily synced from the
// honest log's published entries with entry 0 tampered: an internally
// consistent alternate history that diverges from the honest one at
// the very first leaf, which is what a split-view attack needs to
// survive the victim's own proof checking.
type Log struct {
	honest    *ctlog.Log
	signer    sct.LogSigner
	clock     func() time.Time
	honestAPI http.Handler

	mu      sync.Mutex
	fault   Fault
	history []ctlog.SignedTreeHead
	pinned  ctlog.SignedTreeHead
	shadow  shadowView
}

// NewLog wraps honest with fault injection. signer must be the same
// signer the honest log was configured with (forged heads are signed
// under the real key); clock defaults to time.Now and should be the
// honest log's clock in virtual-time experiments.
func NewLog(honest *ctlog.Log, signer sct.LogSigner, clock func() time.Time) *Log {
	if clock == nil {
		clock = time.Now
	}
	return &Log{
		honest:    honest,
		signer:    signer,
		clock:     clock,
		honestAPI: honest.Handler(),
	}
}

// Honest returns the wrapped honest log.
func (cl *Log) Honest() *ctlog.Log { return cl.honest }

// Fault returns the currently active fault.
func (cl *Log) Fault() Fault {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.fault
}

// SetFault switches the active misbehavior. Enabling FaultWithhold
// captures the honest head as the pinned head that all subsequent
// get-sth responses re-sign.
func (cl *Log) SetFault(f Fault) {
	sth := cl.honest.STH()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.fault = f
	if f == FaultWithhold {
		cl.pinned = sth
	}
}

// Record snapshots the honest log's current head into the rollback
// history. Honest get-sth responses are recorded automatically; tests
// call Record to pin a specific head before growing the tree further.
func (cl *Log) Record() {
	sth := cl.honest.STH()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.recordLocked(sth)
}

func (cl *Log) recordLocked(sth ctlog.SignedTreeHead) {
	if n := len(cl.history); n > 0 &&
		cl.history[n-1].TreeHead.TreeSize == sth.TreeHead.TreeSize &&
		cl.history[n-1].TreeHead.RootHash == sth.TreeHead.RootHash {
		return
	}
	cl.history = append(cl.history, sth)
}

// shadowView is the forked history: honest published entries with
// entry 0 tampered, re-integrated into a second Merkle tree.
type shadowView struct {
	tree       *merkle.TiledTree
	entries    []*ctlog.Entry
	byLeafHash map[merkle.Hash]uint64
}

// syncShadowLocked extends the shadow tree to the honest published
// size. Entry 0 is copied and tampered (last certificate byte
// flipped); all later entries are shared verbatim, so the fork costs
// O(new entries) per sync and the two histories disagree at every size
// from 1 on.
func (cl *Log) syncShadowLocked() error {
	if cl.shadow.tree == nil {
		tree, err := merkle.NewTiled(ctlog.DefaultTileSpan, nil)
		if err != nil {
			return err
		}
		cl.shadow.tree = tree
		cl.shadow.byLeafHash = make(map[merkle.Hash]uint64)
	}
	size := cl.honest.STH().TreeHead.TreeSize
	from := cl.shadow.tree.Size()
	if from >= size {
		return nil
	}
	return cl.honest.StreamEntries(from, size-1, func(e *ctlog.Entry) error {
		idx := cl.shadow.tree.Size()
		se := e
		if idx == 0 {
			tampered := *e
			tampered.Index = 0
			tampered.Cert = tamperCert(e.Cert)
			se = &tampered
		}
		leaf, err := se.MerkleTreeLeaf()
		if err != nil {
			return err
		}
		h := merkle.HashLeaf(leaf)
		cl.shadow.tree.AppendLeafHash(h)
		cl.shadow.entries = append(cl.shadow.entries, se)
		cl.shadow.byLeafHash[h] = idx
		return nil
	})
}

// tamperCert flips one bit of the certificate body, keeping the leaf
// encoding parseable while changing its hash.
func tamperCert(cert []byte) []byte {
	if len(cert) == 0 {
		return []byte{0xff}
	}
	out := append([]byte(nil), cert...)
	out[len(out)-1] ^= 0x01
	return out
}

// shadowSTHLocked signs a fresh head over the shadow tree, synced to
// the honest published size.
func (cl *Log) shadowSTHLocked() (ctlog.SignedTreeHead, error) {
	if err := cl.syncShadowLocked(); err != nil {
		return ctlog.SignedTreeHead{}, err
	}
	root, err := cl.shadow.tree.Root()
	if err != nil {
		return ctlog.SignedTreeHead{}, err
	}
	th := sct.TreeHead{
		Timestamp: uint64(cl.clock().UnixMilli()),
		TreeSize:  cl.shadow.tree.Size(),
		RootHash:  [32]byte(root),
	}
	sig, err := cl.signer.SignTreeHead(th)
	if err != nil {
		return ctlog.SignedTreeHead{}, err
	}
	return ctlog.SignedTreeHead{TreeHead: th, Sig: sig}, nil
}

// withholdSTHLocked re-signs the pinned head under a fresh timestamp:
// the tree claims to be alive while merging nothing.
func (cl *Log) withholdSTHLocked() (ctlog.SignedTreeHead, error) {
	th := cl.pinned.TreeHead
	th.Timestamp = uint64(cl.clock().UnixMilli())
	sig, err := cl.signer.SignTreeHead(th)
	if err != nil {
		return ctlog.SignedTreeHead{}, err
	}
	return ctlog.SignedTreeHead{TreeHead: th, Sig: sig}, nil
}

// shadowRequestLocked reports whether this request resolves to the
// shadow view under the current fault.
func (cl *Log) shadowRequestLocked(r *http.Request) bool {
	switch cl.fault {
	case FaultFork:
		return true
	case FaultSplitView:
		return r.Header.Get(ViewHeader) == ViewShadow
	}
	return false
}

// Handler serves the ct/v1 API with the active fault applied.
// Submissions always pass through to the honest log — misbehaving logs
// still want SCT fees — so the honest history keeps growing underneath
// whatever story get-sth tells.
func (cl *Log) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ct/v1/add-chain", cl.passthrough)
	mux.HandleFunc("POST /ct/v1/add-pre-chain", cl.passthrough)
	mux.HandleFunc("GET /ct/v1/get-sth", cl.handleGetSTH)
	mux.HandleFunc("GET /ct/v1/get-sth-consistency", cl.handleGetSTHConsistency)
	mux.HandleFunc("GET /ct/v1/get-proof-by-hash", cl.handleGetProofByHash)
	mux.HandleFunc("GET /ct/v1/get-entries", cl.handleGetEntries)
	return mux
}

func (cl *Log) passthrough(w http.ResponseWriter, r *http.Request) {
	cl.honestAPI.ServeHTTP(w, r)
}

func (cl *Log) handleGetSTH(w http.ResponseWriter, r *http.Request) {
	cl.mu.Lock()
	var sth ctlog.SignedTreeHead
	var err error
	switch {
	case cl.fault == FaultRollback && len(cl.history) > 0:
		sth = cl.history[0]
	case cl.fault == FaultEquivocate || cl.shadowRequestLocked(r):
		sth, err = cl.shadowSTHLocked()
	case cl.fault == FaultWithhold:
		sth, err = cl.withholdSTHLocked()
	case cl.fault == FaultBadSignature:
		sth = cl.honest.STH()
		tampered := sth.Sig
		tampered.Signature = append([]byte(nil), sth.Sig.Signature...)
		if len(tampered.Signature) > 0 {
			tampered.Signature[0] ^= 0x01
		}
		sth.Sig = tampered
	default:
		sth = cl.honest.STH()
		cl.recordLocked(sth)
	}
	cl.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := ctlog.WriteGetSTH(w, sth); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (cl *Log) handleGetSTHConsistency(w http.ResponseWriter, r *http.Request) {
	first, err1 := strconv.ParseUint(r.URL.Query().Get("first"), 10, 64)
	second, err2 := strconv.ParseUint(r.URL.Query().Get("second"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "chaos: bad first/second", http.StatusBadRequest)
		return
	}
	cl.mu.Lock()
	if !cl.shadowRequestLocked(r) {
		cl.mu.Unlock()
		cl.passthrough(w, r)
		return
	}
	var proof []merkle.Hash
	err := cl.syncShadowLocked()
	if err == nil {
		proof, err = cl.shadow.tree.ConsistencyProof(first, second)
	}
	cl.mu.Unlock()
	if err != nil {
		chaosHTTPError(w, err)
		return
	}
	ctlog.WriteGetSTHConsistency(w, proof)
}

func (cl *Log) handleGetProofByHash(w http.ResponseWriter, r *http.Request) {
	hashBytes, err := base64.StdEncoding.DecodeString(r.URL.Query().Get("hash"))
	treeSize, err2 := strconv.ParseUint(r.URL.Query().Get("tree_size"), 10, 64)
	if err != nil || err2 != nil || len(hashBytes) != merkle.HashSize {
		http.Error(w, "chaos: bad hash/tree_size", http.StatusBadRequest)
		return
	}
	cl.mu.Lock()
	if !cl.shadowRequestLocked(r) {
		cl.mu.Unlock()
		cl.passthrough(w, r)
		return
	}
	var h merkle.Hash
	copy(h[:], hashBytes)
	var (
		index uint64
		proof []merkle.Hash
	)
	err = cl.syncShadowLocked()
	if err == nil {
		var ok bool
		index, ok = cl.shadow.byLeafHash[h]
		switch {
		case !ok:
			err = ctlog.ErrNotFound
		case index >= treeSize:
			err = fmt.Errorf("%w: leaf %d not in tree of size %d", ctlog.ErrBadRange, index, treeSize)
		default:
			proof, err = cl.shadow.tree.InclusionProof(index, treeSize)
		}
	}
	cl.mu.Unlock()
	if err != nil {
		chaosHTTPError(w, err)
		return
	}
	ctlog.WriteGetProofByHash(w, index, proof)
}

// maxShadowGetEntries mirrors the honest log's default page cap.
const maxShadowGetEntries = 1000

func (cl *Log) handleGetEntries(w http.ResponseWriter, r *http.Request) {
	start, err1 := strconv.ParseUint(r.URL.Query().Get("start"), 10, 64)
	end, err2 := strconv.ParseUint(r.URL.Query().Get("end"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "chaos: bad start/end", http.StatusBadRequest)
		return
	}
	cl.mu.Lock()
	fault := cl.fault
	shadow := cl.shadowRequestLocked(r)
	if !shadow && fault != FaultCorruptEntries {
		cl.mu.Unlock()
		cl.passthrough(w, r)
		return
	}

	var entries []*ctlog.Entry
	var err error
	if shadow {
		if err = cl.syncShadowLocked(); err == nil {
			entries, err = cl.shadowEntriesLocked(start, end)
		}
		cl.mu.Unlock()
	} else {
		cl.mu.Unlock()
		entries, err = cl.honest.GetEntries(start, end)
		if err == nil {
			corrupted := make([]*ctlog.Entry, len(entries))
			for i, e := range entries {
				tampered := *e
				tampered.Cert = tamperCert(e.Cert)
				corrupted[i] = &tampered
			}
			entries = corrupted
		}
	}
	if err != nil {
		chaosHTTPError(w, err)
		return
	}
	if err := ctlog.WriteGetEntries(w, entries); err != nil {
		chaosHTTPError(w, err)
	}
}

// shadowEntriesLocked pages the shadow history with the same clamping
// semantics as the honest log.
func (cl *Log) shadowEntriesLocked(start, end uint64) ([]*ctlog.Entry, error) {
	size := cl.shadow.tree.Size()
	if start > end || start >= size {
		return nil, fmt.Errorf("%w: start=%d end=%d size=%d", ctlog.ErrBadRange, start, end, size)
	}
	if end >= size {
		end = size - 1
	}
	if n := end - start + 1; n > maxShadowGetEntries {
		end = start + maxShadowGetEntries - 1
	}
	return cl.shadow.entries[start : end+1 : end+1], nil
}

// chaosHTTPError maps shadow-view errors onto the same status codes the
// honest handler uses, so clients cannot fingerprint the fork by error
// shape.
func chaosHTTPError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ctlog.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ctlog.ErrBadRange), errors.Is(err, merkle.ErrSizeOutOfRange),
		errors.Is(err, merkle.ErrIndexOutOfRange), errors.Is(err, merkle.ErrEmptyRange):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
