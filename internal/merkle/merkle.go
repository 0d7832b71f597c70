// Package merkle implements the Merkle hash tree of RFC 6962, Section 2.1:
// leaf and interior node hashing, tree heads over arbitrary prefixes of an
// append-only sequence, audit (inclusion) proofs, and consistency proofs
// between two tree sizes, together with the corresponding verifiers.
//
// TiledTree is the package's one tree. It caches every perfect-subtree
// root, so appends are amortized O(1) and proofs are O(log n) lookups
// rather than O(n) rehashing. A TiledTree that is never sealed
// (NewTiled(span, nil)) keeps every leaf and node in RAM; sealing a
// span-aligned prefix moves that prefix's sub-tile nodes out to a
// NodeSource, typically on-disk tile files. The hashing scheme is
// domain-separated:
//
//	MTH(leaf)     = SHA-256(0x00 || leaf)
//	MTH(l, r)     = SHA-256(0x01 || l || r)
//
// which prevents second-preimage attacks that confuse leaves with nodes.
package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
)

// HashSize is the size of a tree node hash in bytes (SHA-256).
const HashSize = sha256.Size

// Hash is a Merkle tree node or leaf hash.
type Hash [HashSize]byte

// String returns the hexadecimal form of the hash.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:]) }

var (
	// ErrIndexOutOfRange is returned when a proof is requested for a leaf
	// index that does not exist at the requested tree size.
	ErrIndexOutOfRange = errors.New("merkle: leaf index out of range")
	// ErrSizeOutOfRange is returned when a tree size larger than the
	// current tree is requested.
	ErrSizeOutOfRange = errors.New("merkle: tree size out of range")
	// ErrProofInvalid is returned by verifiers when a proof fails.
	ErrProofInvalid = errors.New("merkle: proof verification failed")
	// ErrEmptyRange is returned for operations meaningless on empty trees.
	ErrEmptyRange = errors.New("merkle: empty range")
)

// HashLeaf computes the RFC 6962 leaf hash: SHA-256(0x00 || data).
func HashLeaf(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashChildren computes the RFC 6962 interior node hash:
// SHA-256(0x01 || left || right).
func HashChildren(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// EmptyRoot returns the root hash of an empty tree: SHA-256 of the empty
// string, per RFC 6962 Section 2.1.
func EmptyRoot() Hash {
	return sha256.Sum256(nil)
}

// splitPoint returns the largest power of two strictly less than n (n ≥ 2).
func splitPoint(n uint64) uint64 {
	return 1 << (63 - bits.LeadingZeros64(n-1))
}

// innerProofSize returns the number of audit-path nodes that lie in the
// "inner" part of the proof for the leaf at index within a tree of the
// given size: the levels below the lowest node on the path from the leaf
// where the path leaves the right border of the tree.
func innerProofSize(index, size uint64) int {
	return bits.Len64(index ^ (size - 1))
}

// chainInner hashes seed upward through the inner proof nodes, choosing
// left/right placement by the bits of index.
func chainInner(seed Hash, proof []Hash, index uint64) Hash {
	for i, h := range proof {
		if (index>>uint(i))&1 == 0 {
			seed = HashChildren(seed, h)
		} else {
			seed = HashChildren(h, seed)
		}
	}
	return seed
}

// chainInnerRight hashes seed upward through the inner proof nodes,
// combining only at levels where index has a 1 bit (the node is a right
// child); used to recompute the smaller tree's root during consistency
// verification.
func chainInnerRight(seed Hash, proof []Hash, index uint64) Hash {
	for i, h := range proof {
		if (index>>uint(i))&1 == 1 {
			seed = HashChildren(h, seed)
		}
	}
	return seed
}

// chainBorderRight hashes seed up the right border, where every proof node
// is a left sibling.
func chainBorderRight(seed Hash, proof []Hash) Hash {
	for _, h := range proof {
		seed = HashChildren(h, seed)
	}
	return seed
}

// VerifyInclusion checks an audit path: that leafHash is the i-th leaf of
// the tree of size n with root root.
func VerifyInclusion(leafHash Hash, i, n uint64, proof []Hash, root Hash) error {
	h, err := RootFromInclusionProof(leafHash, i, n, proof)
	if err != nil {
		return err
	}
	if h != root {
		return fmt.Errorf("%w: computed root %s != %s", ErrProofInvalid, h, root)
	}
	return nil
}

// RootFromInclusionProof recomputes the root implied by an audit path,
// following the verification algorithm of RFC 9162, Section 2.1.3.2.
func RootFromInclusionProof(leafHash Hash, i, n uint64, proof []Hash) (Hash, error) {
	if i >= n {
		return Hash{}, fmt.Errorf("%w: index %d, size %d", ErrIndexOutOfRange, i, n)
	}
	inner := innerProofSize(i, n)
	border := bits.OnesCount64(i >> uint(inner))
	if len(proof) != inner+border {
		return Hash{}, fmt.Errorf("%w: proof length %d, want %d", ErrProofInvalid, len(proof), inner+border)
	}
	res := chainInner(leafHash, proof[:inner], i)
	res = chainBorderRight(res, proof[inner:])
	return res, nil
}

// VerifyConsistency checks that the tree of size m with root root1 is a
// prefix of the tree of size n with root root2, per RFC 9162 Section
// 2.1.4.2 (equivalent to RFC 6962 Section 2.1.4).
func VerifyConsistency(m, n uint64, root1, root2 Hash, proof []Hash) error {
	switch {
	case m > n:
		return fmt.Errorf("%w: m=%d > n=%d", ErrSizeOutOfRange, m, n)
	case m == n:
		if len(proof) != 0 {
			return fmt.Errorf("%w: nonempty proof for equal sizes", ErrProofInvalid)
		}
		if root1 != root2 {
			return fmt.Errorf("%w: equal sizes, different roots", ErrProofInvalid)
		}
		return nil
	case m == 0:
		// Any tree is consistent with the empty tree via an empty proof.
		if len(proof) != 0 {
			return fmt.Errorf("%w: nonempty proof from empty tree", ErrProofInvalid)
		}
		if root1 != EmptyRoot() {
			return fmt.Errorf("%w: nonempty root for empty tree", ErrProofInvalid)
		}
		return nil
	}

	// The consistency proof is a suffix of the inclusion proof for entry
	// m-1 in the size-n tree, starting above the perfect subtree of size
	// 2^shift shared by both trees.
	inner := innerProofSize(m-1, n)
	border := bits.OnesCount64((m - 1) >> uint(inner))
	shift := bits.TrailingZeros64(m)
	inner -= shift

	var seed Hash
	start := 0
	if m == 1<<uint(shift) {
		// m is a perfect subtree of n; the walk starts at root1 itself.
		seed = root1
	} else {
		if len(proof) == 0 {
			return fmt.Errorf("%w: empty proof", ErrProofInvalid)
		}
		seed = proof[0]
		start = 1
	}
	if len(proof) != start+inner+border {
		return fmt.Errorf("%w: proof length %d, want %d", ErrProofInvalid, len(proof), start+inner+border)
	}
	rest := proof[start:]
	mask := (m - 1) >> uint(shift)

	h1 := chainInnerRight(seed, rest[:inner], mask)
	h1 = chainBorderRight(h1, rest[inner:])
	if h1 != root1 {
		return fmt.Errorf("%w: old root mismatch", ErrProofInvalid)
	}
	h2 := chainInner(seed, rest[:inner], mask)
	h2 = chainBorderRight(h2, rest[inner:])
	if h2 != root2 {
		return fmt.Errorf("%w: new root mismatch", ErrProofInvalid)
	}
	return nil
}
