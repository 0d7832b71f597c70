// Package ctlog implements an RFC 6962 Certificate Transparency log: an
// append-only Merkle tree over submitted (pre)certificates, SCT issuance,
// signed tree heads, inclusion and consistency proofs, and the ct/v1 HTTP
// API. It is the substrate on which the paper's Section 2 (log evolution),
// Section 3 (SCT deployment), and Section 6 (honeypot leakage channel)
// experiments run.
//
// # Stage → sequence lifecycle
//
// Like production logs (and unlike a textbook Merkle tree), submission
// and integration are two phases:
//
//   - Stage: AddChain/AddPreChain compute the entry identity hash, the
//     Merkle leaf hash, and the SCT signature entirely outside the
//     staging mutex — they depend only on the immutable entry bytes and
//     the submission timestamp. The mutex is held only for the dedupe
//     lookup, the capacity check, and appending to the pending batch, so
//     many CAs submitting to one log serialize on a few map operations,
//     not on hashing or signing — and never on integration or tile I/O,
//     which run under the separate sequencer lock. The SCT returned to
//     the submitter is the RFC 6962 promise: the entry will be
//     integrated within the MMD.
//   - Sequence: a sequencer drains the pending batch into the Merkle
//     tree in canonical (timestamp, identity-hash) order, making the
//     sequenced tree a pure function of the set of accepted submissions
//     and their timestamps — independent of arrival interleaving. STHs
//     only ever cover sequenced entries.
//
// Two sequencer modes exist. Experiments call Sequence/PublishSTH at
// virtual-clock batch boundaries (the issuance timeline sequences and
// publishes each log once per replayed day), which keeps replays
// deterministic at any parallelism. The standalone server (cmd/ctlogd)
// runs RunSequencer on a wall-clock ticker within the MMD, which is the
// production shape.
//
// # Durability
//
// New builds an in-memory log; Open builds a durable one over a state
// directory (internal/ctlog/storage): an append-only, checksummed
// write-ahead log plus one full-state snapshot, sealed tiles, and a
// seal-time WAL reset. The contract, in the order a submission
// experiences it:
//
//   - Ack: the entry's WAL record is appended under the staging mutex
//     (file order = staging order, so a record always precedes the seal
//     covering it) and — under the default SyncEachSubmission policy —
//     fsynced before the SCT is returned. An acknowledged submission
//     survives any crash; the MMD promise is never made on volatile
//     state. SyncAtSequence defers the write and the fsync to the next
//     barrier for bulk replays. A failure after staging (barrier, signer
//     or SCT encoding) withholds the SCT and leaves the entry staged.
//   - Sequence: after integrating a batch, a seal record (tree size +
//     root — the snapshot cursor) is appended and fsynced, fixing the
//     batch boundary and therefore the canonical in-batch order.
//   - PublishSTH: the signed head is appended and fsynced before
//     readers can observe it, so a served STH is always recoverable —
//     with its original signature bytes.
//   - Snapshot: at every tile seal (around the WAL reset behind it), on
//     Close, and after an adopt-snapshot recovery, the full state — tile
//     roots, resident tail, staged batch, root, STH, dedupe index
//     (implied by the entries), WAL cursor — is written atomically so
//     recovery replays only the tail. There is no other trigger.
//
// Open replays snapshot+tail to byte-identical state, verifying every
// seal and STH against the rebuilt tree; a torn WAL tail is discarded
// (crash debris — those submitters were never acked), a corrupt
// snapshot falls back to a genesis WAL replay only before the first
// seal (every seal resets the WAL, so after it the snapshot is the only
// record of the tail and Open fails with storage.ErrCorrupt), and any
// semantic divergence fails loudly with storage.ErrCorrupt rather than
// serve a tree head the durable history cannot reproduce. Duplicates submitted before and
// after a restart get the original SCT either way, because the dedupe
// index (staged entries included) is part of the recovered state.
//
// # Lock-free reads: the published-snapshot contract
//
// Every read endpoint — GetSTH, GetEntries, StreamEntries,
// GetConsistencyProof, GetProofByHash — is answered
// from the publishedState snapshot behind an atomic pointer and
// acquires no log mutex. PublishSTH installs the snapshot atomically:
// the STH, the frozen entry prefix, a merkle.PrefixView frozen at the
// published size (an O(log n) freeze of the tree's level caches, not a
// copy), and the lock-free hash→index resolution all advance together,
// so a request observes one consistent published view end to end while
// a batch integrates or tiles seal. The published head is
// the horizon: tree sizes above it are rejected with the same error
// classes as sizes above the live tree, even when the live tree already
// covers them — proofs over unpublished state would pin the log to an
// STH it never signed. The contract is pinned by a differential proof
// oracle (an independent RFC 6962 implementation recomputing proofs
// from raw leaf bytes) in TestProofOracle* and FuzzProofEquivalence,
// and structurally by TestProofServingHoldsNoLogMutex.
//
// The log uses a caller-supplied clock so experiments replay the paper's
// 2017–2018 timeline deterministically, and an optional capacity limit so
// overload behaviour (the Nimbus incident discussed in Section 2 and the
// mass-submission risk of Section 3.4) can be reproduced.
package ctlog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ctrise/internal/ctlog/storage"
	"ctrise/internal/drain"
	"ctrise/internal/merkle"
	"ctrise/internal/sct"
)

// Errors returned by the log.
var (
	// ErrOverloaded is returned when submissions exceed the log's capacity,
	// modeling the Nimbus performance incident.
	ErrOverloaded = errors.New("ctlog: log overloaded, submission rejected")
	// ErrNotFound is returned for unknown leaf hashes.
	ErrNotFound = errors.New("ctlog: leaf hash not found")
	// ErrBadRange is returned for invalid get-entries/proof parameters.
	ErrBadRange = errors.New("ctlog: invalid range")
	// ErrPersistence is returned when a durable log's write-ahead log or
	// snapshot cannot be written. The failure is sticky: the log keeps
	// serving reads from memory, but new submissions are refused so no
	// SCT promise is ever made that a restart could not honor.
	ErrPersistence = errors.New("ctlog: persistent store failure")
)

// SyncPolicy selects when a durable log forces its write-ahead log to
// disk relative to acknowledging submissions.
type SyncPolicy int

const (
	// SyncEachSubmission fsyncs the WAL before every SCT is returned
	// (group commit: concurrent submitters share one fsync). A crash
	// never loses an acknowledged submission. This is the default and
	// the production posture.
	SyncEachSubmission SyncPolicy = iota
	// SyncAtSequence buffers entry records in the process and writes
	// and fsyncs them only at sequencing and publication barriers. A
	// crash between barriers — a process kill as well as a power cut —
	// can lose acknowledged-but-unsequenced submissions (never
	// sequenced state, which is always sealed before an STH covers
	// it). Bulk replays use it to keep per-submission latency off the
	// write and fsync path.
	SyncAtSequence
)

// Config configures a log instance.
type Config struct {
	// Name is the log's display name, e.g. "Google Pilot log".
	Name string
	// Operator is the organization running the log, e.g. "Google".
	Operator string
	// Signer issues SCTs and tree head signatures. Required. Use
	// *sct.Signer for cryptographic logs or *sct.FastSigner for
	// bulk-simulation logs.
	Signer sct.LogSigner
	// Clock supplies the log's notion of now. Defaults to time.Now.
	// Experiments install a virtual clock.
	Clock func() time.Time
	// MaxGetEntries caps the number of entries returned by one get-entries
	// call, like production logs do. Defaults to 1000.
	MaxGetEntries int
	// CapacityPerSecond, if positive, limits sustained submissions per
	// second with a token bucket holding max(CapacityPerSecond, 1)
	// tokens, so fractional rates admit one submission per
	// 1/CapacityPerSecond seconds; excess submissions fail with
	// ErrOverloaded.
	CapacityPerSecond float64
	// Sync selects the WAL durability point for logs opened with Open.
	// Ignored by in-memory logs. Defaults to SyncEachSubmission.
	Sync SyncPolicy
	// TileSpan is the number of entries per sealed storage tile on durable
	// logs: once a span-aligned prefix of the tree is covered by a
	// published STH it is sealed into immutable tile files and evicted
	// from RAM, and the WAL is truncated behind it (see tiles.go). Must be
	// a power of two ≥ 2; 0 means the default (1024). A directory that
	// already holds sealed tiles keeps its original span regardless of
	// this setting. Ignored by in-memory logs (which keep everything
	// resident and never seal — tree bytes are identical either way).
	TileSpan int
	// PageCacheBytes bounds the RAM the tile page cache may hold (decoded
	// tile pages, LRU-evicted, only ever the ones reads ask for — Open
	// and sealing cache none): hash pages, each charged its file bytes
	// plus 8 bytes of leaf key per entry; index pages, which hold a
	// tile's identity rows for dedupe and are charged 40 bytes per
	// entry; and leaf tiles' offsets pages, each charged its (span+1)
	// 32-bit offsets. Leaf bytes are never cached; each sealed read
	// reads its own records from the tile file. 0 means the default
	// (64 MiB); negative disables retention entirely (every sealed-tile
	// read pages in from disk, the offsets page too — useful for
	// cold-cache measurement). Ignored by in-memory logs.
	PageCacheBytes int64
}

// DefaultTileSpan is the sealed-tile span used when Config.TileSpan is 0.
const DefaultTileSpan = 1024

// DefaultPageCacheBytes is the tile page-cache budget used when
// Config.PageCacheBytes is 0.
const DefaultPageCacheBytes = 64 << 20

// SignedTreeHead is an STH: a tree head plus the log's signature over it.
type SignedTreeHead struct {
	TreeHead sct.TreeHead
	Sig      sct.DigitallySigned
}

// Log is an RFC 6962 log, in memory (New) or durable (Open). All methods
// are safe for concurrent use. Two locks split the write path; readers
// take neither, and a submitter waits only on the staging mutex and the
// WAL barrier.
type Log struct {
	cfg Config

	// seqMu, the sequencer lock, guards the fields below up to stageMu
	// and serializes Sequence, PublishSTH (seals included) and Close. No
	// reader or submitter takes it. Acquired before stageMu.
	seqMu sync.Mutex
	tree  *merkle.TiledTree
	// entries holds the resident tail of the sequenced log: entries
	// [tailStart, tree.Size()). On durable logs, entries below tailStart
	// live in sealed on-disk tiles (served through l.tiles); on in-memory
	// logs tailStart is always 0 and this is the whole log.
	entries   []*Entry
	tailStart uint64
	// published is the latest signed tree head; it may trail the tree by
	// up to MMD.
	published SignedTreeHead
	// treeSize mirrors tree.Size() for TreeSize, which takes no lock.
	treeSize atomic.Uint64
	// sealWorkers is the most workers one seal has run: writeTilesLocked
	// starts min(tiles, GOMAXPROCS), each with buffers of its own for
	// that seal only. Only tests read it, to pin the seal's fan-out.
	sealWorkers int
	// sealNanos is the wall time spent sealing tiles
	// (ctlog_seal_seconds_total).
	sealNanos atomic.Uint64

	// stageMu, the staging mutex, is the only lock add takes.
	// It guards the fields below up to byLeafHash and orders WAL entry
	// appends. The sequencer takes it only to swap out the batch and to
	// snapshot (after a seal: drop the sealed identities, compact).
	stageMu sync.Mutex
	// staged is the pending batch: accepted submissions not yet
	// integrated into the tree (an entry whose SCT was withheld is
	// staged too). Sequence drains it.
	staged []*Entry
	// dedupe maps cert-identity hash -> entry (staged or resident tail),
	// so resubmitting the same (pre)certificate returns the original SCT
	// (like real logs) whether or not it has been integrated yet. Sealed
	// entries leave this map after their tile registers; their identities
	// are found through the per-tile bloom + index files instead (see add
	// and tiles.go).
	dedupe map[merkle.Hash]*Entry
	// bucket enforces CapacityPerSecond; nil when unlimited.
	bucket *drain.Bucket
	// stats
	rejected uint64

	// byLeafHash maps Merkle leaf hash -> entry index for
	// get-proof-by-hash, resident tail only; sealed leaf hashes resolve
	// through the tile indexes. It is a lock-free index (see proofs.go):
	// written by the sequencer, read by proof serving with no lock at all.
	byLeafHash *leafIndex
	// pub snapshots the published STH together with the entry prefix it
	// covers. Entries below a published tree size are immutable (the log
	// is append-only and *Entry values are never rewritten), so readers
	// holding the snapshot can walk that prefix with no lock at all —
	// the fast path StreamEntries and GetEntries ride on.
	pub atomic.Pointer[publishedState]
	// seqInterval is the running sequencer's interval (a time.Duration),
	// the Retry-After hint on 429/503 responses; 0 until RunSequencer
	// starts, which drain.Refuse renders as 1s.
	seqInterval atomic.Int64

	// store is the durability layer for logs opened with Open; nil for
	// in-memory logs.
	store *storage.Store
	// tiles serves sealed tiles on durable logs; nil for in-memory logs.
	tiles *tileStore
	// sealStageHook, when set (tests only), observes the seal lifecycle
	// stages so crash tests can kill the process at each durability
	// boundary.
	sealStageHook func(stage string)
}

// newLog validates cfg and builds an unpublished log skeleton shared by
// New (in-memory) and Open (durable).
func newLog(cfg Config) (*Log, error) {
	if cfg.Signer == nil {
		return nil, errors.New("ctlog: Config.Signer is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxGetEntries <= 0 {
		cfg.MaxGetEntries = 1000
	}
	if cfg.TileSpan == 0 {
		cfg.TileSpan = DefaultTileSpan
	}
	if cfg.TileSpan < 2 || cfg.TileSpan&(cfg.TileSpan-1) != 0 {
		return nil, fmt.Errorf("ctlog: Config.TileSpan %d is not a power of two ≥ 2", cfg.TileSpan)
	}
	if cfg.PageCacheBytes == 0 {
		cfg.PageCacheBytes = DefaultPageCacheBytes
	}
	// In-memory logs get a source-less tiled tree and never seal, so the
	// tree bytes (and every trajectory) match the durable shape exactly.
	tree, err := merkle.NewTiled(uint64(cfg.TileSpan), nil)
	if err != nil {
		return nil, err
	}
	l := &Log{
		cfg:        cfg,
		tree:       tree,
		dedupe:     make(map[merkle.Hash]*Entry),
		byLeafHash: &leafIndex{},
	}
	if cfg.CapacityPerSecond > 0 {
		l.bucket = drain.NewBucket(cfg.CapacityPerSecond, 0)
	}
	return l, nil
}

// New creates an in-memory log and publishes the empty-tree STH.
func New(cfg Config) (*Log, error) {
	l, err := newLog(cfg)
	if err != nil {
		return nil, err
	}
	if err := l.publishLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// Name returns the log's display name.
func (l *Log) Name() string { return l.cfg.Name }

// Operator returns the log operator.
func (l *Log) Operator() string { return l.cfg.Operator }

// LogID returns the log's RFC 6962 ID.
func (l *Log) LogID() sct.LogID { return l.cfg.Signer.LogID() }

// Verifier returns a verifier for this log's signatures.
func (l *Log) Verifier() sct.SCTVerifier { return l.cfg.Signer.Verifier() }

// TreeSize returns the current sequenced (but possibly unpublished) tree
// size. Staged submissions are not counted until sequenced, nor is a
// batch while it integrates.
func (l *Log) TreeSize() uint64 {
	return l.treeSize.Load()
}

// publishedState is the immutable snapshot stored in Log.pub: the latest
// STH plus where the entries it covers live — the resident tail slice
// for [tailStart, TreeSize), the sealed tiles below tailStart — plus a
// frozen Merkle view over exactly the published prefix. Readers hold it
// lock-free; a seal after publication does not disturb it (the old tail
// and level backing arrays stay alive until the next publish swaps the
// view).
type publishedState struct {
	sth SignedTreeHead
	// tail holds entries [tailStart, sth.TreeHead.TreeSize); the slice is
	// append-frozen.
	tail      []*Entry
	tailStart uint64
	// tiles serves the sealed prefix; nil on in-memory logs (tailStart 0).
	tiles *tileStore
	// tree is the frozen proof view over the published prefix
	// (merkle.TiledTree.PrefixView at sth.TreeHead.TreeSize): inclusion
	// and consistency proofs at any size ≤ the published head compute
	// from it with no log lock. See proofs.go.
	tree *merkle.TiledTree
}

// STH returns the latest published signed tree head.
func (l *Log) STH() SignedTreeHead {
	return l.pub.Load().sth
}

// leafRange clamps [start, end] (inclusive) to what one read of ps
// serves — the published tree size, at most limit entries, and, in the
// sealed prefix, the end of start's tile, so a read touches at most one
// leaf file — and returns the clamped range, which always begins at
// start. A range in the resident tail comes back as its entries, which
// alias immutable shared state; a sealed range is read from its tile
// into pg (tileStore.readLeaves), which then holds its MerkleTreeLeaf
// bytes, checked but for their syntax (the caller parses them or runs
// checkLeaves), and tail is nil. start's tile is complete (tailStart is
// tile-aligned), so the tile clamp never clips below a valid page.
func (ps *publishedState) leafRange(start, end, limit uint64, pg *leafPage) (tail []*Entry, err error) {
	size := ps.sth.TreeHead.TreeSize
	if start > end || start >= size {
		return nil, fmt.Errorf("%w: start=%d end=%d size=%d", ErrBadRange, start, end, size)
	}
	end = min(end, size-1)
	if end-start >= limit {
		end = start + limit - 1
	}
	if start >= ps.tailStart {
		i, j := start-ps.tailStart, end-ps.tailStart
		return ps.tail[i : j+1 : j+1], nil
	}
	span := ps.tiles.span
	tile, base := start/span, start/span*span
	end = min(end, base+span-1)
	return nil, ps.tiles.readLeaves(tile, start-base, end-base+1, pg)
}

// parseLeaves parses sealed leaves into entries first, first+1, … — one
// Entry slab for the lot, not an allocation each. The entries' byte
// fields alias the leaves. leafHash is not stamped (nothing reads it off
// a sealed entry; LeafHash() computes from fields). The parse is these
// readers' leaf-syntax check (readLeaves leaves it to them): a leaf
// that does not parse is storage.ErrCorrupt.
func parseLeaves(first uint64, leaves [][]byte) ([]*Entry, error) {
	slab := make([]Entry, len(leaves))
	ents := make([]*Entry, len(leaves))
	for i, leaf := range leaves {
		e := &slab[i]
		if err := e.parseLeaf(leaf); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", storage.ErrCorrupt, first+uint64(i), err)
		}
		e.Index = first + uint64(i)
		ents[i] = e
	}
	return ents, nil
}

// GetEntries returns entries [start, end] (inclusive, like the RFC API),
// truncated to MaxGetEntries and to the published tree size. Ranges in
// the resident tail are served lock-free from the published snapshot and
// alias it, so the slice must be treated as read-only. Ranges in the
// sealed prefix are read from their tile file into a buffer of the
// caller's own and parsed into entries that alias it, and — like
// production tile-backed logs — the page is additionally clamped at the
// end of the tile containing start, so one call touches at most one
// tile. Callers page on from where the response stopped (ctclient
// does), so the short page is invisible above the wire.
func (l *Log) GetEntries(start, end uint64) ([]*Entry, error) {
	var pg leafPage
	tail, err := l.pub.Load().leafRange(start, end, uint64(l.cfg.MaxGetEntries), &pg)
	if err != nil || tail != nil {
		return tail, err
	}
	return parseLeaves(start, pg.leaves)
}

// StreamEntries calls fn for every entry in [start, end] (inclusive),
// clipped to the published tree size, and stops at fn's first error. It
// never takes a log lock: the published prefix is immutable, so the walk
// runs on the lock-free snapshot even while writers append — the sealed
// part tile by tile, each tile's range read into a buffer of its own and
// parsed into one slab, the resident tail directly. It is the
// bulk-iteration substrate for harvest-scale crawls.
func (l *Log) StreamEntries(start, end uint64, fn func(*Entry) error) error {
	ps := l.pub.Load()
	size := ps.sth.TreeHead.TreeSize
	for {
		var pg leafPage
		ents, err := ps.leafRange(start, end, size, &pg)
		if err != nil {
			return err
		}
		if ents == nil {
			if ents, err = parseLeaves(start, pg.leaves); err != nil {
				return err
			}
		}
		for _, e := range ents {
			if err := fn(e); err != nil {
				return err
			}
		}
		start += uint64(len(ents))
		if start > end || start >= size {
			return nil
		}
	}
}
