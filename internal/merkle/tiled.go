package merkle

import (
	"fmt"
	"math/bits"
)

// NodeSource serves hashes of perfect subtrees that a TiledTree has
// pruned from RAM. Node(level, index) must return MTH over leaves
// [index<<level, (index+1)<<level) — the same node the tree held in its
// level cache before Seal dropped it. Implementations are typically
// backed by immutable on-disk tile files and may perform IO; errors are
// propagated to the proof/root caller.
type NodeSource interface {
	Node(level int, index uint64) (Hash, error)
}

// TiledTree is an append-only RFC 6962 Merkle tree whose bottom levels
// are prunable. Appends carry-propagate into a cache of perfect-subtree
// roots, one slice per level; roots and proofs follow the RFC's split
// recursion and read cached nodes wherever a subtree is perfect and
// aligned. Leaves and interior nodes below the tile level (log2 of the
// configured span) can be evicted from RAM once their span-aligned
// prefix is sealed, after which they are served by the NodeSource.
// Levels at or above the tile level (the "spine", one node per span
// leaves and up) always stay resident, so a sealed tree holds
// O(n/span + log n) hashes in RAM.
//
// A TiledTree that is never sealed needs no NodeSource and keeps every
// node in RAM. Sealing changes where nodes live, never what they hash
// to, so the same type backs in-memory and durable logs and their
// trajectories stay byte-identical. TiledTree is not safe for concurrent
// use.
type TiledTree struct {
	span uint64 // leaves per tile; power of two ≥ 2
	tlvl int    // log2(span): first level that is never pruned
	src  NodeSource

	size   uint64 // total leaves appended
	sealed uint64 // span-aligned prefix whose sub-tile nodes may be pruned

	// levels[l] holds the materialized nodes of level l (perfect subtrees
	// of size 2^l, left to right) starting at absolute position base[l].
	// For l < tlvl, base[l] == sealed>>l (everything before is pruned);
	// for l ≥ tlvl, base[l] == 0.
	levels [][]Hash
	base   []uint64

	// frozen marks a PrefixView: a read-only snapshot sharing this tree's
	// backing arrays. Mutations panic instead of corrupting the shared
	// state.
	frozen bool
}

// NewTiled returns an empty tiled tree with the given span (leaves per
// tile; must be a power of two ≥ 2). src may be nil for trees that are
// never sealed.
func NewTiled(span uint64, src NodeSource) (*TiledTree, error) {
	if span < 2 || span&(span-1) != 0 {
		return nil, fmt.Errorf("merkle: tile span %d is not a power of two ≥ 2", span)
	}
	return &TiledTree{
		span: span,
		tlvl: bits.TrailingZeros64(span),
		src:  src,
	}, nil
}

// PrefixView returns an immutable snapshot of the tree's first n leaves:
// a read-only TiledTree whose Root/RootAt/LeafHash/TileRoot and proof
// methods answer exactly as the live tree did for sizes ≤ n at the
// moment of the call, no matter how the live tree is appended to or
// sealed afterwards. Any number of goroutines may read one view
// concurrently (the NodeSource must itself be concurrency-safe, which
// tile-backed sources are — tile files are immutable); mutating a view
// panics.
//
// The snapshot is O(log n) slice headers, not a copy of the nodes: a
// TiledTree only ever appends to its level slices (existing elements are
// never rewritten) and Seal replaces pruned slices rather than mutating
// them, so freezing the current lengths pins a consistent image. A view
// taken before a Seal keeps the pre-seal backing arrays alive until the
// view is dropped — the price of lock-free readers, bounded by one
// unsealed tail per view.
//
// n must cover the sealed prefix (sealing only ever happens below a
// published head, and views are taken at published sizes) and must not
// exceed the current size.
func (t *TiledTree) PrefixView(n uint64) (*TiledTree, error) {
	if n > t.size {
		return nil, fmt.Errorf("%w: view size %d, have %d", ErrSizeOutOfRange, n, t.size)
	}
	if n < t.sealed {
		return nil, fmt.Errorf("%w: view size %d below sealed prefix %d", ErrSizeOutOfRange, n, t.sealed)
	}
	v := &TiledTree{
		span:   t.span,
		tlvl:   t.tlvl,
		src:    t.src,
		size:   n,
		sealed: t.sealed,
		levels: make([][]Hash, len(t.levels)),
		base:   make([]uint64, len(t.base)),
		frozen: true,
	}
	for i, lv := range t.levels {
		v.levels[i] = lv[:len(lv):len(lv)]
	}
	copy(v.base, t.base)
	return v, nil
}

// Size returns the number of leaves.
func (t *TiledTree) Size() uint64 { return t.size }

// Span returns the configured tile span.
func (t *TiledTree) Span() uint64 { return t.span }

// ensureLevel grows the level cache so that levels[lvl] exists. A level
// created below the tile level starts at the current seal boundary.
func (t *TiledTree) ensureLevel(lvl int) {
	for lvl >= len(t.levels) {
		l := len(t.levels)
		t.levels = append(t.levels, nil)
		var b uint64
		if l < t.tlvl {
			b = t.sealed >> uint(l)
		}
		t.base = append(t.base, b)
	}
}

// AppendLeafHash appends a precomputed leaf hash, returning the leaf
// index. Like a binary increment, a node at an odd position completes a
// pair whose parent carries into the next level; because sealed is
// always span-aligned, a carry below the tile level never needs a pruned
// sibling.
func (t *TiledTree) AppendLeafHash(h Hash) uint64 {
	if t.frozen {
		panic("merkle: append to a frozen PrefixView")
	}
	idx := t.size
	t.size++
	cur := h
	for lvl := 0; ; lvl++ {
		t.ensureLevel(lvl)
		pos := idx >> uint(lvl)
		t.levels[lvl] = append(t.levels[lvl], cur)
		if pos%2 == 0 {
			break
		}
		i := pos - t.base[lvl]
		cur = HashChildren(t.levels[lvl][i-1], t.levels[lvl][i])
	}
	return idx
}

// AppendSealedTile appends a whole tile by its subtree root without
// materializing its leaves — the recovery path, where sealed tiles live
// on disk and only their roots are recorded in the snapshot. It requires
// the tree to be fully sealed (no mutable tail yet), keeps the new tile
// sealed, and carries the root up the spine exactly as span individual
// appends would have.
func (t *TiledTree) AppendSealedTile(root Hash) error {
	if t.frozen {
		panic("merkle: append to a frozen PrefixView")
	}
	if t.size != t.sealed {
		return fmt.Errorf("merkle: AppendSealedTile with unsealed tail (size %d, sealed %d)", t.size, t.sealed)
	}
	tile := t.size / t.span
	t.size += t.span
	t.sealed = t.size
	for lvl := 0; lvl < t.tlvl; lvl++ {
		t.ensureLevel(lvl)
		t.base[lvl] = t.sealed >> uint(lvl)
	}
	cur := root
	for lvl := t.tlvl; ; lvl++ {
		t.ensureLevel(lvl)
		pos := tile >> uint(lvl-t.tlvl)
		t.levels[lvl] = append(t.levels[lvl], cur)
		if pos%2 == 0 {
			break
		}
		i := pos - t.base[lvl]
		cur = HashChildren(t.levels[lvl][i-1], t.levels[lvl][i])
	}
	return nil
}

// Seal marks the first n leaves (n span-aligned) as sealed and prunes
// their sub-tile nodes from RAM. The caller must have made those nodes
// available through the NodeSource first — typically by writing and
// verifying the tile files — since proofs over the sealed region will
// load them back on demand.
func (t *TiledTree) Seal(n uint64) error {
	if t.frozen {
		panic("merkle: seal of a frozen PrefixView")
	}
	if n%t.span != 0 {
		return fmt.Errorf("merkle: seal size %d is not a multiple of span %d", n, t.span)
	}
	if n < t.sealed || n > t.size {
		return fmt.Errorf("merkle: seal size %d outside [%d, %d]", n, t.sealed, t.size)
	}
	if n > t.sealed && t.src == nil {
		return fmt.Errorf("merkle: sealing without a node source")
	}
	for lvl := 0; lvl < t.tlvl && lvl < len(t.levels); lvl++ {
		nb := n >> uint(lvl)
		if nb <= t.base[lvl] {
			continue
		}
		// Copy the survivors so the pruned prefix's backing array is
		// actually released to the GC.
		keep := t.levels[lvl][nb-t.base[lvl]:]
		kept := make([]Hash, len(keep))
		copy(kept, keep)
		t.levels[lvl] = kept
		t.base[lvl] = nb
	}
	t.sealed = n
	return nil
}

// node returns the hash of the perfect-subtree node (lvl, pos) — MTH
// over leaves [pos<<lvl, (pos+1)<<lvl) — from RAM or the NodeSource.
// ok=false with nil error means the node spans the mutable edge and the
// caller must recurse into its children.
func (t *TiledTree) node(lvl int, pos uint64) (Hash, bool, error) {
	if lvl < len(t.levels) && pos >= t.base[lvl] {
		if i := pos - t.base[lvl]; i < uint64(len(t.levels[lvl])) {
			return t.levels[lvl][i], true, nil
		}
		return Hash{}, false, nil
	}
	if lvl < t.tlvl && (pos+1)<<uint(lvl) <= t.sealed {
		if t.src == nil {
			return Hash{}, false, fmt.Errorf("merkle: pruned node (level %d, index %d) with no node source", lvl, pos)
		}
		h, err := t.src.Node(lvl, pos)
		if err != nil {
			return Hash{}, false, fmt.Errorf("merkle: loading node (level %d, index %d): %w", lvl, pos, err)
		}
		return h, true, nil
	}
	return Hash{}, false, nil
}

// TileRoot returns the root of tile number `tile` — MTH over leaves
// [tile*span, (tile+1)*span) — which must be complete. Used to verify
// freshly written tile files against the in-RAM tree before sealing.
func (t *TiledTree) TileRoot(tile uint64) (Hash, error) {
	if (tile+1)*t.span > t.size {
		return Hash{}, fmt.Errorf("%w: tile %d incomplete at size %d", ErrSizeOutOfRange, tile, t.size)
	}
	return t.subtreeRoot(tile*t.span, (tile+1)*t.span)
}

// Root returns the root hash over all leaves.
func (t *TiledTree) Root() (Hash, error) {
	return t.RootAt(t.size)
}

// RootAt returns the root hash of the tree comprising the first n leaves.
func (t *TiledTree) RootAt(n uint64) (Hash, error) {
	if n > t.size {
		return Hash{}, fmt.Errorf("%w: size %d, have %d", ErrSizeOutOfRange, n, t.size)
	}
	if n == 0 {
		return EmptyRoot(), nil
	}
	return t.subtreeRoot(0, n)
}

// subtreeRoot computes MTH over leaves [lo, hi), hi > lo. A perfect
// subtree aligned on its size is one node lookup (RAM or NodeSource);
// anything else recurses per the RFC 6962 split: the largest power of
// two strictly less than the range size.
func (t *TiledTree) subtreeRoot(lo, hi uint64) (Hash, error) {
	n := hi - lo
	if n == 1 {
		h, ok, err := t.node(0, lo)
		if err != nil {
			return Hash{}, err
		}
		if !ok {
			return Hash{}, fmt.Errorf("merkle: leaf %d not materialized", lo)
		}
		return h, nil
	}
	if n&(n-1) == 0 && lo%n == 0 {
		lvl := bits.TrailingZeros64(n)
		h, ok, err := t.node(lvl, lo>>uint(lvl))
		if err != nil {
			return Hash{}, err
		}
		if ok {
			return h, nil
		}
	}
	k := splitPoint(n)
	l, err := t.subtreeRoot(lo, lo+k)
	if err != nil {
		return Hash{}, err
	}
	r, err := t.subtreeRoot(lo+k, hi)
	if err != nil {
		return Hash{}, err
	}
	return HashChildren(l, r), nil
}

// InclusionProof returns the audit path for leaf index i in the tree of
// size n (RFC 6962 Section 2.1.1).
func (t *TiledTree) InclusionProof(i, n uint64) ([]Hash, error) {
	if n > t.size {
		return nil, fmt.Errorf("%w: size %d, have %d", ErrSizeOutOfRange, n, t.size)
	}
	if i >= n {
		return nil, fmt.Errorf("%w: index %d, size %d", ErrIndexOutOfRange, i, n)
	}
	return t.path(i, 0, n)
}

// path computes PATH(i, [lo, hi)) per RFC 6962.
func (t *TiledTree) path(i, lo, hi uint64) ([]Hash, error) {
	n := hi - lo
	if n == 1 {
		return nil, nil
	}
	k := splitPoint(n)
	if i-lo < k {
		p, err := t.path(i, lo, lo+k)
		if err != nil {
			return nil, err
		}
		sib, err := t.subtreeRoot(lo+k, hi)
		if err != nil {
			return nil, err
		}
		return append(p, sib), nil
	}
	p, err := t.path(i, lo+k, hi)
	if err != nil {
		return nil, err
	}
	sib, err := t.subtreeRoot(lo, lo+k)
	if err != nil {
		return nil, err
	}
	return append(p, sib), nil
}

// ConsistencyProof returns the proof that the tree of size m is a prefix
// of the tree of size n (RFC 6962 Section 2.1.2). Requires 0 < m ≤ n ≤ Size.
func (t *TiledTree) ConsistencyProof(m, n uint64) ([]Hash, error) {
	if n > t.size {
		return nil, fmt.Errorf("%w: size %d, have %d", ErrSizeOutOfRange, n, t.size)
	}
	if m == 0 {
		return nil, fmt.Errorf("%w: consistency from size 0", ErrEmptyRange)
	}
	if m > n {
		return nil, fmt.Errorf("%w: m=%d > n=%d", ErrSizeOutOfRange, m, n)
	}
	if m == n {
		return nil, nil
	}
	return t.subProof(m, 0, n, true)
}

// subProof computes SUBPROOF(m, [lo, hi), b) per RFC 6962 Section 2.1.2.
func (t *TiledTree) subProof(m, lo, hi uint64, b bool) ([]Hash, error) {
	n := hi - lo
	if m == n {
		if b {
			return nil, nil
		}
		h, err := t.subtreeRoot(lo, hi)
		if err != nil {
			return nil, err
		}
		return []Hash{h}, nil
	}
	k := splitPoint(n)
	if m <= k {
		p, err := t.subProof(m, lo, lo+k, b)
		if err != nil {
			return nil, err
		}
		sib, err := t.subtreeRoot(lo+k, hi)
		if err != nil {
			return nil, err
		}
		return append(p, sib), nil
	}
	p, err := t.subProof(m-k, lo+k, hi, false)
	if err != nil {
		return nil, err
	}
	sib, err := t.subtreeRoot(lo, lo+k)
	if err != nil {
		return nil, err
	}
	return append(p, sib), nil
}
