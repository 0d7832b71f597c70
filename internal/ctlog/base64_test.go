package ctlog

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math/rand"
	"testing"
)

// checkAppendBase64 holds appendBase64(dst, src) to
// base64.StdEncoding.AppendEncode byte for byte. dst's bytes (its prefix)
// must come back untouched, and so must any spare capacity past the
// encoding, which the kernel has no business writing.
func checkAppendBase64(t *testing.T, what string, dst, src []byte) {
	t.Helper()
	const sentinel = 0xa5
	spare := dst[len(dst):cap(dst)]
	for i := range spare {
		spare[i] = sentinel
	}
	prefix := bytes.Clone(dst)
	want := base64.StdEncoding.AppendEncode(bytes.Clone(dst), src)
	got := appendBase64(dst, src)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d-byte src encodes to\n%q\nwant\n%q", what, len(src), got, want)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: prefix changed", what)
	}
	if cap(got) == cap(dst) {
		for i, b := range got[len(got):cap(got)] {
			if b != sentinel {
				t.Fatalf("%s: wrote spare capacity %d bytes past the encoding", what, i)
			}
		}
	}
}

// base64GuardLengths is every length through 200 (every tail the 3-byte
// loop and padding can leave), and every length from 2 below to 6 above
// a multiple of 24 up to 8 KiB: the pure-Go 24-byte loop's exit and its
// 26-byte guard, and the AVX2 kernel's 28-byte guard, where its block
// count steps.
func base64GuardLengths() []int {
	var lengths []int
	for n := 0; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	for k := 9; 24*k+6 <= 8<<10; k++ {
		for n := 24*k - 2; n <= 24*k+6; n++ {
			lengths = append(lengths, n)
		}
	}
	return lengths
}

// TestAppendBase64 is the kernel's identity test: every guard length,
// filled with random bytes, all 0x00 and all 0xFF, appended into a dst
// with no spare capacity, one with exactly enough and one behind a
// prefix. Run it with -tags purego too, for the pure-Go loops alone.
func TestAppendBase64(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	prefix := []byte(`{"leaf_input":"`)
	for _, n := range base64GuardLengths() {
		enc := base64.StdEncoding.EncodedLen(n)
		for _, fill := range []string{"random", "0x00", "0xff"} {
			src := make([]byte, n)
			switch fill {
			case "random":
				rng.Read(src)
			case "0xff":
				for i := range src {
					src[i] = 0xff
				}
			}
			for _, dst := range []struct {
				name string
				b    []byte
			}{
				{"no spare capacity", prefix[:len(prefix):len(prefix)]},
				{"nil", nil},
				{"exact capacity", make([]byte, 0, enc)},
				{"prefix", append(make([]byte, 0, len(prefix)+enc+8), prefix...)},
			} {
				checkAppendBase64(t, fmt.Sprintf("%d %s bytes into %s dst", n, fill, dst.name), dst.b, src)
			}
		}
	}
}

// FuzzAppendBase64 holds the kernel to the stdlib on arbitrary input
// behind an arbitrary prefix. The seeds are the checked-in corpus under
// testdata/fuzz/FuzzAppendBase64.
func FuzzAppendBase64(f *testing.F) {
	f.Fuzz(func(t *testing.T, src, prefix []byte) {
		checkAppendBase64(t, "fuzzed", prefix[:len(prefix):len(prefix)], src)
		checkAppendBase64(t, "fuzzed with spare capacity", append(make([]byte, 0, len(prefix)+len(src)*2), prefix...), src)
	})
}
