package merkle

import (
	"errors"
	"fmt"
	"testing"
)

// treeSource serves pruned nodes by computing them from the reference
// tree — the test stand-in for the on-disk tile files. It counts lookups
// so tests can prove the sealed region is actually served from the
// source rather than from RAM.
type treeSource struct {
	ref     refTree
	lookups int
}

func (s *treeSource) Node(level int, index uint64) (Hash, error) {
	s.lookups++
	lo, hi := index<<uint(level), (index+1)<<uint(level)
	if hi > uint64(len(s.ref)) {
		return Hash{}, fmt.Errorf("treeSource: no node at level %d index %d", level, index)
	}
	return s.ref.mth(lo, hi), nil
}

func testLeaf(i int) []byte {
	return []byte(fmt.Sprintf("leaf-%d", i))
}

// buildRef returns the reference tree over n test leaves.
func buildRef(n int) refTree {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = testLeaf(i)
	}
	return newRef(leaves)
}

// requireSameProofs asserts that the tiled tree serves byte-identical
// roots, inclusion proofs, and consistency proofs to the reference tree
// at tree size n.
func requireSameProofs(t *testing.T, ref refTree, tt *TiledTree, n uint64) {
	t.Helper()
	wantRoot := ref.root(n)
	gotRoot, err := tt.RootAt(n)
	if err != nil {
		t.Fatalf("tiled.RootAt(%d): %v", n, err)
	}
	if gotRoot != wantRoot {
		t.Fatalf("RootAt(%d): tiled %s != reference %s", n, gotRoot, wantRoot)
	}
	for i := uint64(0); i < n; i++ {
		want := ref.path(i, 0, n)
		got, err := tt.InclusionProof(i, n)
		if err != nil {
			t.Fatalf("tiled.InclusionProof(%d, %d): %v", i, n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("InclusionProof(%d, %d): %d nodes, want %d", i, n, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("InclusionProof(%d, %d)[%d] differs", i, n, j)
			}
		}
		lh, _, err := tt.node(0, i)
		if err != nil {
			t.Fatalf("tiled leaf %d: %v", i, err)
		}
		if err := VerifyInclusion(lh, i, n, got, wantRoot); err != nil {
			t.Fatalf("tiled proof (%d, %d) does not verify: %v", i, n, err)
		}
	}
	for m := uint64(1); m <= n; m++ {
		var want []Hash
		if m < n {
			want = ref.subproof(m, 0, n, true)
		}
		got, err := tt.ConsistencyProof(m, n)
		if err != nil {
			t.Fatalf("tiled.ConsistencyProof(%d, %d): %v", m, n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("ConsistencyProof(%d, %d): %d nodes, want %d", m, n, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("ConsistencyProof(%d, %d)[%d] differs", m, n, j)
			}
		}
		if err := VerifyConsistency(m, n, ref.root(m), wantRoot, got); err != nil {
			t.Fatalf("tiled consistency (%d, %d) does not verify: %v", m, n, err)
		}
	}
}

// TestTiledUnsealedMatchesTree: a TiledTree that is never sealed — the
// in-memory tree — is byte-for-byte equivalent to the RFC 6962 reference
// tree.
func TestTiledUnsealedMatchesTree(t *testing.T) {
	const n = 67
	ref := buildRef(n)
	tt, err := NewTiled(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := tt.AppendLeafHash(ref[i]); got != uint64(i) {
			t.Fatalf("AppendLeafHash returned index %d, want %d", got, i)
		}
	}
	requireSameProofs(t, ref, tt, n)
	root, err := tt.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root != ref.root(n) {
		t.Fatal("Root differs from the reference tree")
	}
}

// TestTiledSealedMatchesTree: sealing at every reachable boundary while
// appending must not change any root or proof against the reference
// tree, at spans 2 to 32 and both aligned and ragged final sizes.
func TestTiledSealedMatchesTree(t *testing.T) {
	const n = 73
	ref := buildRef(n)
	for _, span := range []uint64{2, 4, 8, 16, 32} {
		t.Run(fmt.Sprintf("span=%d", span), func(t *testing.T) {
			src := &treeSource{ref: ref}
			tt, err := NewTiled(span, src)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < n; i++ {
				tt.AppendLeafHash(ref[i])
				// Seal the longest aligned prefix after every append —
				// the most adversarial schedule.
				if err := tt.Seal(tt.Size() / span * span); err != nil {
					t.Fatalf("Seal at size %d: %v", tt.Size(), err)
				}
			}
			if want := uint64(n) / span * span; tt.sealed != want {
				t.Fatalf("Sealed() = %d, want %d", tt.sealed, want)
			}
			requireSameProofs(t, ref, tt, n)
			if tt.sealed > 0 && src.lookups == 0 {
				t.Fatal("no NodeSource lookups: sealed region was not actually pruned")
			}
			// Tile roots must match the reference subtree roots.
			for tile := uint64(0); (tile+1)*span <= n; tile++ {
				got, err := tt.TileRoot(tile)
				if err != nil {
					t.Fatalf("TileRoot(%d): %v", tile, err)
				}
				if want := ref.mth(tile*span, (tile+1)*span); got != want {
					t.Fatalf("TileRoot(%d) differs from reference", tile)
				}
			}
		})
	}
}

// TestTiledAppendSealedTile: rebuilding a tree from recorded tile roots
// plus a replayed tail (the recovery path) yields the same tree as
// appending every leaf.
func TestTiledAppendSealedTile(t *testing.T) {
	const n = 61
	const span = 8
	ref := buildRef(n)
	src := &treeSource{ref: ref}
	tt, err := NewTiled(span, src)
	if err != nil {
		t.Fatal(err)
	}
	tiles := uint64(n) / span
	for tile := uint64(0); tile < tiles; tile++ {
		root := ref.mth(tile*span, (tile+1)*span)
		if err := tt.AppendSealedTile(root); err != nil {
			t.Fatalf("AppendSealedTile(%d): %v", tile, err)
		}
	}
	if tt.Size() != tiles*span || tt.sealed != tiles*span {
		t.Fatalf("size/sealed = %d/%d, want %d", tt.Size(), tt.sealed, tiles*span)
	}
	for i := tiles * span; i < n; i++ {
		tt.AppendLeafHash(ref[i])
	}
	requireSameProofs(t, ref, tt, n)

	// With a mutable tail present, AppendSealedTile must refuse.
	if err := tt.AppendSealedTile(Hash{}); err == nil {
		t.Fatal("AppendSealedTile with unsealed tail succeeded")
	}
}

// TestTiledSealValidation pins the Seal/NewTiled error contract.
func TestTiledSealValidation(t *testing.T) {
	if _, err := NewTiled(0, nil); err == nil {
		t.Fatal("NewTiled(0) succeeded")
	}
	if _, err := NewTiled(3, nil); err == nil {
		t.Fatal("NewTiled(3) succeeded")
	}
	if _, err := NewTiled(1, nil); err == nil {
		t.Fatal("NewTiled(1) succeeded")
	}
	tt, err := NewTiled(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tt.AppendLeafHash(HashLeaf(testLeaf(i)))
	}
	if err := tt.Seal(3); err == nil {
		t.Fatal("misaligned seal succeeded")
	}
	if err := tt.Seal(12); err == nil {
		t.Fatal("seal beyond size succeeded")
	}
	if err := tt.Seal(4); err == nil {
		t.Fatal("seal without a node source succeeded")
	}
	if err := tt.Seal(0); err != nil {
		t.Fatalf("no-op seal failed: %v", err)
	}
}

// TestTiledSourceErrorPropagates: IO failures from the NodeSource must
// surface as errors from proof computation, not wrong hashes or panics.
func TestTiledSourceErrorPropagates(t *testing.T) {
	const n = 16
	const span = 4
	ref := buildRef(n)
	srcErr := errors.New("disk on fire")
	fail := false
	src := &funcSource{fn: func(level int, index uint64) (Hash, error) {
		if fail {
			return Hash{}, srcErr
		}
		return (&treeSource{ref: ref}).Node(level, index)
	}}
	tt, err := NewTiled(span, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		tt.AppendLeafHash(ref[i])
	}
	if err := tt.Seal(n); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := tt.InclusionProof(0, n); !errors.Is(err, srcErr) {
		t.Fatalf("InclusionProof error = %v, want wrapped source error", err)
	}
	if _, _, err := tt.node(0, 2); !errors.Is(err, srcErr) {
		t.Fatalf("leaf node error = %v, want wrapped source error", err)
	}
	// The spine is resident: the full root must still compute. (Root over
	// the whole sealed tree touches only spine nodes.)
	if _, err := tt.Root(); err != nil {
		t.Fatalf("Root() should not need the source for a power-of-two sealed tree: %v", err)
	}
}

type funcSource struct {
	fn func(level int, index uint64) (Hash, error)
}

func (s *funcSource) Node(level int, index uint64) (Hash, error) { return s.fn(level, index) }

// TestPrefixViewMatchesLiveTree: a view frozen at size n answers roots
// and proofs exactly as the live tree did at that moment — and keeps
// answering them unchanged while the live tree appends and seals past
// it, every answer held to the reference recursion. This is the property
// lock-free proof serving rests on.
func TestPrefixViewMatchesLiveTree(t *testing.T) {
	const n = 73
	const span = 8
	ref := buildRef(n)
	src := &treeSource{ref: ref}
	tt, err := NewTiled(span, src)
	if err != nil {
		t.Fatal(err)
	}
	// Grow to 52, sealing the longest aligned prefix as a log would.
	for i := uint64(0); i < 52; i++ {
		tt.AppendLeafHash(ref[i])
	}
	if err := tt.Seal(48); err != nil {
		t.Fatal(err)
	}
	views := map[uint64]*TiledTree{}
	for _, sz := range []uint64{48, 50, 52} {
		v, err := tt.PrefixView(sz)
		if err != nil {
			t.Fatalf("PrefixView(%d): %v", sz, err)
		}
		views[sz] = v
		requireSameProofs(t, ref, v, sz)
	}
	// Mutate the live tree well past the captured views: more appends,
	// another seal (which prunes and replaces level slices).
	for i := uint64(52); i < n; i++ {
		tt.AppendLeafHash(ref[i])
	}
	if err := tt.Seal(64); err != nil {
		t.Fatal(err)
	}
	for sz, v := range views {
		if v.Size() != sz {
			t.Fatalf("view size moved to %d", v.Size())
		}
		requireSameProofs(t, ref, v, sz)
	}
	// A view above its own size still errors like the live tree did.
	v := views[50]
	if _, err := v.InclusionProof(0, 51); !errors.Is(err, ErrSizeOutOfRange) {
		t.Fatalf("InclusionProof above view size: err=%v, want ErrSizeOutOfRange", err)
	}
	if _, err := v.ConsistencyProof(3, 51); !errors.Is(err, ErrSizeOutOfRange) {
		t.Fatalf("ConsistencyProof above view size: err=%v, want ErrSizeOutOfRange", err)
	}
}

// TestPrefixViewBounds pins the capture preconditions: a view cannot
// extend past the live size nor cut into the sealed prefix.
func TestPrefixViewBounds(t *testing.T) {
	ref := buildRef(20)
	src := &treeSource{ref: ref}
	tt, err := NewTiled(4, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		tt.AppendLeafHash(ref[i])
	}
	if err := tt.Seal(16); err != nil {
		t.Fatal(err)
	}
	if _, err := tt.PrefixView(21); !errors.Is(err, ErrSizeOutOfRange) {
		t.Fatalf("PrefixView above size: err=%v, want ErrSizeOutOfRange", err)
	}
	if _, err := tt.PrefixView(12); !errors.Is(err, ErrSizeOutOfRange) {
		t.Fatalf("PrefixView below sealed: err=%v, want ErrSizeOutOfRange", err)
	}
	if _, err := tt.PrefixView(16); err != nil {
		t.Fatalf("PrefixView at the seal boundary: %v", err)
	}
	// The empty tree has an empty view.
	empty, err := NewTiled(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := empty.PrefixView(0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := v.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root != EmptyRoot() {
		t.Fatal("empty view root is not the empty root")
	}
}

// TestPrefixViewFrozen: mutating a view must panic — it shares backing
// arrays with the live tree, and a silent append would corrupt both.
func TestPrefixViewFrozen(t *testing.T) {
	tt, err := NewTiled(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt.AppendLeafHash(HashLeaf(testLeaf(0)))
	v, err := tt.PrefixView(1)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a frozen view did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("AppendLeafHash", func() { v.AppendLeafHash(Hash{}) })
	mustPanic("AppendSealedTile", func() { v.AppendSealedTile(Hash{}) })
	mustPanic("Seal", func() { v.Seal(0) })
}
