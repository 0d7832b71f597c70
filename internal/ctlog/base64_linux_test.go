package ctlog

import (
	"bytes"
	"encoding/base64"
	"math/rand"
	"os"
	"syscall"
	"testing"
)

// TestAppendBase64NoOverRead places every src so that it ends where a
// PROT_NONE page begins, so a kernel that reads even one byte past src
// faults instead of passing. It runs every guard length of
// TestAppendBase64.
func TestAppendBase64NoOverRead(t *testing.T) {
	lengths := base64GuardLengths()
	maxLen := lengths[len(lengths)-1]
	page := os.Getpagesize()
	data := (maxLen + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(28)).Read(mem[:data])
	for _, n := range lengths {
		src := mem[data-n : data : data]
		want := base64.StdEncoding.EncodeToString(src)
		if got := appendBase64(nil, src); !bytes.Equal(got, []byte(want)) {
			t.Fatalf("%d bytes against the guard page encode to\n%q\nwant\n%q", n, got, want)
		}
	}
}
