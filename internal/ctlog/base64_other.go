//go:build !amd64 || purego

package ctlog

// base64Blocks is the AVX2 kernel's stand-in where there is none: it
// encodes nothing, leaving all of src to appendBase64's pure-Go loops.
func base64Blocks(dst, src []byte) int { return 0 }
