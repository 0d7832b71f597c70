package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seed2018.golden from this run")

// TestSeed2018Golden pins the honeypot report at seed 2018 byte for
// byte, the port-scan rows' order included: the rows come out of a map,
// so an order that is not fully specified fails here within a few runs
// (CI runs it 20 times).
func TestSeed2018Golden(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-seed", "2018"}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "seed2018.golden")
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
		t.Fatalf("honeypot report differs from %s (run with -update if intended)\n got:\n%s\nwant:\n%s", goldenPath, got.Bytes(), want)
	}
}

// TestTable4MatchesCtrise requires the Table 4 this command prints at
// seed 2018 to be the one ctrise's default run (seed 2018) prints, as
// pinned by ctrise's golden: one seed names one Table 4.
func TestTable4MatchesCtrise(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-seed", "2018"}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	ctrise, err := os.ReadFile(filepath.Join("..", "ctrise", "testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	table := bytes.SplitAfter(got.Bytes(), []byte("\n\n"))[0]
	if !bytes.Contains(ctrise, table) {
		t.Fatalf("Table 4 at seed 2018 is not the one in ctrise's default.golden:\n%s", table)
	}
}
