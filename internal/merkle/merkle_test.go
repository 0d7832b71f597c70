package merkle

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// RFC 6962 test vectors (from the reference implementation's test suite):
// the tree over the 8 leaf inputs below.
var rfcLeaves = [][]byte{
	{},
	{0x00},
	{0x10},
	{0x20, 0x21},
	{0x30, 0x31},
	{0x40, 0x41, 0x42, 0x43},
	{0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57},
	{0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x6b, 0x6c, 0x6d, 0x6e, 0x6f},
}

var rfcRoots = []string{
	"6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
	"fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
	"aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
	"d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
	"4e3bbb1f7b478dcfe71fb631631519a3bca12c9aefca1612bfce4c13a86264d4",
	"76e67dadbcdf1e10e1b74ddc608abd2f98dfb16fbce75277b5232a127f2087ef",
	"ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c",
	"5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328",
}

// newUnsealed returns an empty tree that is never sealed: the in-memory
// tree.
func newUnsealed(tb testing.TB) *TiledTree {
	tb.Helper()
	tr, err := NewTiled(1024, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func mustRoot(tb testing.TB, tr *TiledTree) Hash {
	tb.Helper()
	root, err := tr.Root()
	if err != nil {
		tb.Fatal(err)
	}
	return root
}

// rfcShape is one way to hold the rfcLeaves: a tree that is never sealed,
// or one that seals the longest span-aligned prefix after every append
// and serves the pruned nodes from the reference tree.
type rfcShape struct {
	name string
	span uint64
	seal bool
}

var rfcShapes = []rfcShape{
	{name: "unsealed", span: 8},
	{name: "sealed-span=2", span: 2, seal: true},
	{name: "sealed-span=4", span: 4, seal: true},
}

// buildRFC returns an unsealed tree over the first n rfcLeaves.
func buildRFC(t *testing.T, n int) *TiledTree {
	t.Helper()
	return rfcShapes[0].build(t, n)
}

// build returns a tree of this shape over the first n rfcLeaves.
func (s rfcShape) build(t *testing.T, n int) *TiledTree {
	t.Helper()
	var src NodeSource
	if s.seal {
		src = &treeSource{ref: newRef(rfcLeaves)}
	}
	tr, err := NewTiled(s.span, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.append(t, tr, rfcLeaves[i])
	}
	return tr
}

func (s rfcShape) append(t *testing.T, tr *TiledTree, data []byte) {
	t.Helper()
	tr.AppendLeafHash(HashLeaf(data))
	if s.seal {
		if err := tr.Seal(tr.Size() / s.span * s.span); err != nil {
			t.Fatalf("Seal at size %d: %v", tr.Size(), err)
		}
	}
}

// errorTrees returns the three trees the error-class tests run on, each
// over the first n rfcLeaves (n < 8): unsealed, sealed at span 2, and a
// PrefixView at n of a span-2 tree sealed below n and grown past it.
func errorTrees(t *testing.T, n int) map[string]*TiledTree {
	t.Helper()
	span2 := rfcShape{span: 2, seal: true}
	sealed := span2.build(t, n)
	live := span2.build(t, n)
	live.AppendLeafHash(HashLeaf(rfcLeaves[n]))
	view, err := live.PrefixView(uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*TiledTree{"unsealed": buildRFC(t, n), "sealed": sealed, "view": view}
}

func TestEmptyRoot(t *testing.T) {
	want := sha256.Sum256(nil)
	if got := mustRoot(t, newUnsealed(t)); got != Hash(want) {
		t.Fatalf("empty root = %s", got)
	}
	if got := EmptyRoot(); got != Hash(want) {
		t.Fatalf("EmptyRoot = %s", got)
	}
}

func TestRFC6962Roots(t *testing.T) {
	for _, s := range rfcShapes {
		t.Run(s.name, func(t *testing.T) {
			tr := s.build(t, 0)
			for i, leaf := range rfcLeaves {
				s.append(t, tr, leaf)
				if got := mustRoot(t, tr); hex.EncodeToString(got[:]) != rfcRoots[i] {
					t.Errorf("size %d: root = %s, want %s", i+1, got, rfcRoots[i])
				}
			}
		})
	}
}

func TestRootAtMatchesIncremental(t *testing.T) {
	for _, s := range rfcShapes {
		t.Run(s.name, func(t *testing.T) {
			tr := s.build(t, 8)
			for n := 1; n <= 8; n++ {
				got, err := tr.RootAt(uint64(n))
				if err != nil {
					t.Fatalf("RootAt(%d): %v", n, err)
				}
				if hex.EncodeToString(got[:]) != rfcRoots[n-1] {
					t.Errorf("RootAt(%d) = %s, want %s", n, got, rfcRoots[n-1])
				}
			}
		})
	}
}

func TestRootAtZero(t *testing.T) {
	tr := buildRFC(t, 3)
	got, err := tr.RootAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != EmptyRoot() {
		t.Fatalf("RootAt(0) = %s", got)
	}
}

func TestRootAtOutOfRange(t *testing.T) {
	for name, tr := range errorTrees(t, 3) {
		if _, err := tr.RootAt(4); !errors.Is(err, ErrSizeOutOfRange) {
			t.Errorf("%s: RootAt past size: err=%v, want ErrSizeOutOfRange", name, err)
		}
	}
}

// RFC 6962 Section 2.1.3 example audit paths for the 7-leaf tree built from
// the first 7 rfcLeaves, expressed structurally: verify every (i, n) pair.
func TestInclusionProofAllPairs(t *testing.T) {
	tr := buildRFC(t, 8)
	for n := uint64(1); n <= 8; n++ {
		root, err := tr.RootAt(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			proof, err := tr.InclusionProof(i, n)
			if err != nil {
				t.Fatalf("InclusionProof(%d,%d): %v", i, n, err)
			}
			leaf := HashLeaf(rfcLeaves[i])
			if err := VerifyInclusion(leaf, i, n, proof, root); err != nil {
				t.Errorf("VerifyInclusion(%d,%d): %v", i, n, err)
			}
		}
	}
}

func TestInclusionProofRejectsWrongLeaf(t *testing.T) {
	tr := buildRFC(t, 8)
	root := mustRoot(t, tr)
	proof, err := tr.InclusionProof(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	wrong := HashLeaf([]byte("not the leaf"))
	if err := VerifyInclusion(wrong, 2, 8, proof, root); err == nil {
		t.Fatal("verification should fail for wrong leaf")
	}
}

func TestInclusionProofRejectsWrongIndex(t *testing.T) {
	tr := buildRFC(t, 8)
	root := mustRoot(t, tr)
	proof, err := tr.InclusionProof(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	leaf := HashLeaf(rfcLeaves[2])
	if err := VerifyInclusion(leaf, 3, 8, proof, root); err == nil {
		t.Fatal("verification should fail for wrong index")
	}
}

func TestInclusionProofRejectsTamperedProof(t *testing.T) {
	tr := buildRFC(t, 8)
	root := mustRoot(t, tr)
	proof, err := tr.InclusionProof(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	proof[0][3] ^= 0xff
	if err := VerifyInclusion(HashLeaf(rfcLeaves[5]), 5, 8, proof, root); err == nil {
		t.Fatal("verification should fail for tampered proof")
	}
}

func TestInclusionProofErrors(t *testing.T) {
	leaf := HashLeaf(rfcLeaves[0])
	for name, tr := range errorTrees(t, 4) {
		if _, err := tr.InclusionProof(4, 4); !errors.Is(err, ErrIndexOutOfRange) {
			t.Errorf("%s: index == size: err=%v, want ErrIndexOutOfRange", name, err)
		}
		if _, err := tr.InclusionProof(0, 5); !errors.Is(err, ErrSizeOutOfRange) {
			t.Errorf("%s: size > tree: err=%v, want ErrSizeOutOfRange", name, err)
		}
		proof, err := tr.InclusionProof(0, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := RootFromInclusionProof(leaf, 0, 4, proof); err != nil {
			t.Fatalf("%s: valid proof rejected: %v", name, err)
		}
		// The proof-length check, one node short and one node long.
		if _, err := RootFromInclusionProof(leaf, 0, 4, proof[:len(proof)-1]); !errors.Is(err, ErrProofInvalid) {
			t.Errorf("%s: proof one node short: err=%v, want ErrProofInvalid", name, err)
		}
		long := append(append([]Hash(nil), proof...), Hash{})
		if _, err := RootFromInclusionProof(leaf, 0, 4, long); !errors.Is(err, ErrProofInvalid) {
			t.Errorf("%s: proof one node long: err=%v, want ErrProofInvalid", name, err)
		}
	}
}

func TestConsistencyAllPairs(t *testing.T) {
	tr := buildRFC(t, 8)
	for m := uint64(1); m <= 8; m++ {
		root1, _ := tr.RootAt(m)
		for n := m; n <= 8; n++ {
			root2, _ := tr.RootAt(n)
			proof, err := tr.ConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("ConsistencyProof(%d,%d): %v", m, n, err)
			}
			if err := VerifyConsistency(m, n, root1, root2, proof); err != nil {
				t.Errorf("VerifyConsistency(%d,%d): %v", m, n, err)
			}
		}
	}
}

func TestConsistencyRejectsForkedTree(t *testing.T) {
	tr := buildRFC(t, 8)
	// A forked tree shares the first 4 leaves, then diverges.
	forked := buildRFC(t, 4)
	for i := 4; i < 8; i++ {
		forked.AppendLeafHash(HashLeaf([]byte(fmt.Sprintf("divergent-%d", i))))
	}
	root1, _ := tr.RootAt(6) // not a prefix of forked at size 6
	root2 := mustRoot(t, forked)
	proof, err := forked.ConsistencyProof(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(6, 8, root1, root2, proof); err == nil {
		t.Fatal("verification should fail: size-6 tree is not a prefix of forked tree")
	}
}

func TestConsistencyEqualSizes(t *testing.T) {
	tr := buildRFC(t, 5)
	root, _ := tr.RootAt(5)
	proof, err := tr.ConsistencyProof(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) != 0 {
		t.Fatalf("proof for equal sizes should be empty, got %d nodes", len(proof))
	}
	if err := VerifyConsistency(5, 5, root, root, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyErrors(t *testing.T) {
	for name, tr := range errorTrees(t, 4) {
		if _, err := tr.ConsistencyProof(0, 4); !errors.Is(err, ErrEmptyRange) {
			t.Errorf("%s: m=0: err=%v, want ErrEmptyRange", name, err)
		}
		if _, err := tr.ConsistencyProof(3, 5); !errors.Is(err, ErrSizeOutOfRange) {
			t.Errorf("%s: n > size: err=%v, want ErrSizeOutOfRange", name, err)
		}
		if _, err := tr.ConsistencyProof(4, 3); !errors.Is(err, ErrSizeOutOfRange) {
			t.Errorf("%s: m > n: err=%v, want ErrSizeOutOfRange", name, err)
		}
	}
	if err := VerifyConsistency(3, 2, Hash{}, Hash{}, nil); !errors.Is(err, ErrSizeOutOfRange) {
		t.Errorf("verify with m > n: err=%v, want ErrSizeOutOfRange", err)
	}
	if err := VerifyConsistency(2, 2, Hash{1}, Hash{2}, nil); !errors.Is(err, ErrProofInvalid) {
		t.Errorf("equal sizes different roots: err=%v, want ErrProofInvalid", err)
	}
	if err := VerifyConsistency(0, 2, EmptyRoot(), Hash{2}, []Hash{{}}); !errors.Is(err, ErrProofInvalid) {
		t.Errorf("nonempty proof from empty tree: err=%v, want ErrProofInvalid", err)
	}
	if err := VerifyConsistency(0, 2, EmptyRoot(), Hash{2}, nil); err != nil {
		t.Errorf("empty tree consistency: %v", err)
	}
}

// TestLeafHash: the leaf level resolves every leaf's hash, whether it is
// resident, sealed behind the node source, or under a frozen view.
func TestLeafHash(t *testing.T) {
	if idx := newUnsealed(t).AppendLeafHash(HashLeaf([]byte("hello"))); idx != 0 {
		t.Fatalf("first index = %d", idx)
	}
	for name, tr := range errorTrees(t, 3) {
		for i := uint64(0); i < 3; i++ {
			got, ok, err := tr.node(0, i)
			if err != nil || !ok {
				t.Fatalf("%s: leaf %d: ok=%v err=%v", name, i, ok, err)
			}
			if got != HashLeaf(rfcLeaves[i]) {
				t.Fatalf("%s: leaf %d hash mismatch", name, i)
			}
		}
	}
}

func TestDomainSeparation(t *testing.T) {
	// A leaf containing what looks like two node hashes must not collide
	// with the interior node over those hashes.
	l, r := HashLeaf([]byte("l")), HashLeaf([]byte("r"))
	node := HashChildren(l, r)
	leafData := append(append([]byte{}, l[:]...), r[:]...)
	if HashLeaf(leafData) == node {
		t.Fatal("leaf/node domain separation broken")
	}
}

func TestSplitPoint(t *testing.T) {
	cases := map[uint64]uint64{2: 1, 3: 2, 4: 2, 5: 4, 7: 4, 8: 4, 9: 8, 1 << 20: 1 << 19, (1 << 20) + 1: 1 << 20}
	for n, want := range cases {
		if got := splitPoint(n); got != want {
			t.Errorf("splitPoint(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: for random trees, inclusion proofs verify for every leaf and
// fail for a perturbed root.
func TestPropertyInclusionRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(200)
		tr := newUnsealed(t)
		data := make([][]byte, n)
		for i := range data {
			data[i] = make([]byte, rng.Intn(50))
			rng.Read(data[i])
			tr.AppendLeafHash(HashLeaf(data[i]))
		}
		root := mustRoot(t, tr)
		i := uint64(rng.Intn(n))
		proof, err := tr.InclusionProof(i, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyInclusion(HashLeaf(data[i]), i, uint64(n), proof, root); err != nil {
			t.Fatalf("n=%d i=%d: %v", n, i, err)
		}
		bad := root
		bad[0] ^= 1
		if err := VerifyInclusion(HashLeaf(data[i]), i, uint64(n), proof, bad); err == nil {
			t.Fatalf("n=%d i=%d: verified against wrong root", n, i)
		}
	}
}

// Property: consistency proofs verify for random (m, n) pairs on random trees.
func TestPropertyConsistencyRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(300)
		tr := newUnsealed(t)
		for i := 0; i < n; i++ {
			buf := make([]byte, 8+rng.Intn(16))
			rng.Read(buf)
			tr.AppendLeafHash(HashLeaf(buf))
		}
		m := uint64(1 + rng.Intn(n))
		root1, _ := tr.RootAt(m)
		root2, _ := tr.RootAt(uint64(n))
		proof, err := tr.ConsistencyProof(m, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyConsistency(m, uint64(n), root1, root2, proof); err != nil {
			t.Fatalf("m=%d n=%d: %v", m, n, err)
		}
	}
}

// Property (quick): appending data then recomputing the root from scratch
// with the reference tree matches the cached computation.
func TestQuickRootMatchesNaive(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		tr := newUnsealed(t)
		for _, l := range raw {
			tr.AppendLeafHash(HashLeaf(l))
		}
		return mustRoot(t, tr) == newRef(raw).root(uint64(len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	tr := newUnsealed(b)
	leaf := []byte("benchmark leaf data: some certificate bytes")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.AppendLeafHash(HashLeaf(leaf))
	}
}

func BenchmarkInclusionProof(b *testing.B) {
	tr := newUnsealed(b)
	for i := 0; i < 1<<16; i++ {
		tr.AppendLeafHash(HashLeaf([]byte{byte(i), byte(i >> 8)}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.InclusionProof(uint64(i)%tr.Size(), tr.Size()); err != nil {
			b.Fatal(err)
		}
	}
}
