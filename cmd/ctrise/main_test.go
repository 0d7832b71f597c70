package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/default.golden from this run")

// TestDefaultRunGolden pins every table and figure of a default run
// byte for byte, and requires a sequential run to render the same
// bytes: an experiment that drifts, or depends on scheduling, fails
// here rather than in a reader's diff of the report.
func TestDefaultRunGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(nil, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "default.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("default run differs from %s (run with -update if intended):\n%s", goldenPath, firstDiff(got.Bytes(), want))
	}

	var seq bytes.Buffer
	if err := run([]string{"-parallelism", "1"}, &seq, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), want) {
		t.Fatalf("-parallelism 1 differs from %s:\n%s", goldenPath, firstDiff(seq.Bytes(), want))
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return "line " + strconv.Itoa(i+1) + ":\n got: " + string(gl) + "\nwant: " + string(wl)
		}
	}
	return "identical lines"
}
