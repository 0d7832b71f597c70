package merkle

import "crypto/sha256"

// refTree is the test-only reference for TiledTree: the RFC 6962
// Section 2.1 definitions (MTH, PATH, SUBPROOF) evaluated by plain
// recursion over the leaf hashes, with no level cache. It calls nothing
// from this package but HashLeaf and HashChildren and finds every split
// with its own loop, so a TiledTree bug cannot hide in code the two
// share.
type refTree []Hash

// newRef returns the reference tree over the given leaf inputs.
func newRef(leaves [][]byte) refTree {
	r := make(refTree, len(leaves))
	for i, l := range leaves {
		r[i] = HashLeaf(l)
	}
	return r
}

// refSplit returns k, the largest power of two strictly less than n
// (n ≥ 2).
func refSplit(n uint64) uint64 {
	k := uint64(1)
	for k*2 < n {
		k *= 2
	}
	return k
}

// root returns MTH over the first n leaves; the empty tree hashes to
// SHA-256 of the empty string.
func (r refTree) root(n uint64) Hash {
	if n == 0 {
		return sha256.Sum256(nil)
	}
	return r.mth(0, n)
}

// mth returns MTH(D[lo:hi]), hi > lo.
func (r refTree) mth(lo, hi uint64) Hash {
	if hi-lo == 1 {
		return r[lo]
	}
	k := refSplit(hi - lo)
	return HashChildren(r.mth(lo, lo+k), r.mth(lo+k, hi))
}

// path returns PATH(i, D[lo:hi]): the audit path of leaf i, lo ≤ i < hi.
func (r refTree) path(i, lo, hi uint64) []Hash {
	if hi-lo == 1 {
		return nil
	}
	k := refSplit(hi - lo)
	if i < lo+k {
		return append(r.path(i, lo, lo+k), r.mth(lo+k, hi))
	}
	return append(r.path(i, lo+k, hi), r.mth(lo, lo+k))
}

// subproof returns SUBPROOF(m, D[lo:hi], b); the consistency proof from
// size m to size n is subproof(m, 0, n, true) for 0 < m < n.
func (r refTree) subproof(m, lo, hi uint64, b bool) []Hash {
	n := hi - lo
	if m == n {
		if b {
			return nil
		}
		return []Hash{r.mth(lo, hi)}
	}
	k := refSplit(n)
	if m <= k {
		return append(r.subproof(m, lo, lo+k, b), r.mth(lo+k, hi))
	}
	return append(r.subproof(m-k, lo+k, hi, false), r.mth(lo, lo+k))
}
