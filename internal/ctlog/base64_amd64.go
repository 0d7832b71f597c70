//go:build amd64 && !purego

package ctlog

// hasAVX2 reports, once at package init, whether the CPU and the OS
// support AVX2: CPUID leaf 1 must report OSXSAVE and AVX, XCR0 must
// show the OS saving the XMM and YMM state, and CPUID leaf 7 must
// report AVX2.
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

// base64Blocks encodes into dst the longest run of whole 24-byte blocks
// at the start of src that the AVX2 kernel can read without going past
// src's end, and returns how many bytes of src it consumed (a multiple
// of 24; 0 without AVX2). dst must have room for 4/3 of that. Each block
// is read as 16 bytes at +0 and +12, so a block is encoded only while 28
// bytes remain.
func base64Blocks(dst, src []byte) int {
	if !hasAVX2 || len(src) < 28 {
		return 0
	}
	n := (len(src) - 4) / 24
	_ = dst[32*n-1]
	encodeBlocksAVX2(&dst[0], &src[0], n)
	return 24 * n
}

// encodeBlocksAVX2 encodes n 24-byte blocks of src into 32n bytes of
// dst, reading src[0 : 24n+4].
//
//go:noescape
func encodeBlocksAVX2(dst, src *byte, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
