package main

import (
	"bytes"
	"crypto/x509"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ctrise/internal/sct"
)

// TestCheckDurableFlags pins ctlogd's flag check (checkFlags): a missing
// -data-dir is refused whatever else is set (there is no in-memory
// mode), a non-positive -sequence interval is refused, and any
// invocation with a -data-dir and a positive interval passes.
func TestCheckDurableFlags(t *testing.T) {
	const noDataDir = "-data-dir is required"
	for _, row := range []struct {
		args []string
		want string // "" = accepted; otherwise a substring of the error
	}{
		{args: nil, want: noDataDir},
		{args: []string{"-addr", "127.0.0.1:0", "-sequence", "2s"}, want: noDataDir},
		{args: []string{"-data-dir", "/var/lib/ctlog"}},
		{args: []string{"-data-dir", "/var/lib/ctlog", "-tile-span", "8", "-page-cache", "-1"}},
		{args: []string{"-tile-span", "8"}, want: noDataDir},
		{args: []string{"-page-cache", "0"}, want: noDataDir},
		{args: []string{"-data-dir", "", "-tile-span", "8"}, want: noDataDir},
		{args: []string{"-tile-span", "8", "-page-cache", "1024"}, want: noDataDir},
		{args: []string{"-sequence", "0s"}, want: "-sequence 0s is not a positive duration"},
		{args: []string{"-sequence", "-1s", "-data-dir", "/var/lib/ctlog"}, want: "-sequence -1s is not a positive duration"},
	} {
		t.Run(strings.Join(row.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("ctlogd", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			fs.String("addr", "", "")
			fs.Duration("sequence", time.Second, "")
			fs.String("data-dir", "", "")
			fs.Int("tile-span", 0, "")
			fs.Int64("page-cache", 0, "")
			if err := fs.Parse(row.args); err != nil {
				t.Fatal(err)
			}
			err := checkFlags(fs)
			switch {
			case row.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)):
				t.Fatalf("err=%v, want one mentioning %q", err, row.want)
			}
		})
	}
}

// TestLoadOrCreateSigner pins the lifecycle of the log's identity key,
// DIR/key.der: created once (mode 0600, through
// storage.WriteFileExclusive, no temp file left behind),
// reloaded as the same log, converged on by racing first starts, and
// never regenerated over a file that does not parse.
func TestLoadOrCreateSigner(t *testing.T) {
	noTempLeft := func(t *testing.T, dir string) {
		t.Helper()
		tmps, err := filepath.Glob(filepath.Join(dir, "key.der.tmp*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tmps) > 0 {
			t.Fatalf("temp key files left behind: %v", tmps)
		}
	}
	fileLogID := func(t *testing.T, dir string) sct.LogID {
		t.Helper()
		der, err := os.ReadFile(filepath.Join(dir, "key.der"))
		if err != nil {
			t.Fatal(err)
		}
		priv, err := x509.ParseECPrivateKey(der)
		if err != nil {
			t.Fatal(err)
		}
		return sct.NewSignerFromKey(priv).LogID()
	}

	t.Run("createThenReload", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "state", "log")
		first, err := loadOrCreateSigner(dir)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, "key.der"))
		if err != nil {
			t.Fatal(err)
		}
		if perm := fi.Mode().Perm(); perm != 0o600 {
			t.Fatalf("key.der mode %v, want 0600", perm)
		}
		noTempLeft(t, dir)
		if got := fileLogID(t, dir); got != first.LogID() {
			t.Fatal("the returned signer is not the key on disk")
		}
		again, err := loadOrCreateSigner(dir)
		if err != nil {
			t.Fatal(err)
		}
		if again.LogID() != first.LogID() {
			t.Fatal("second start has a different log ID")
		}
	})

	t.Run("racingFirstStarts", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "log")
		const racers = 8
		ids := make([]sct.LogID, racers)
		errs := make([]error, racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range racers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				s, err := loadOrCreateSigner(dir)
				if err != nil {
					errs[i] = err
					return
				}
				ids[i] = s.LogID()
			}()
		}
		close(start)
		wg.Wait()
		want := fileLogID(t, dir)
		for i := range racers {
			if errs[i] != nil {
				t.Fatalf("racer %d: %v", i, errs[i])
			}
			if ids[i] != want {
				t.Fatalf("racer %d signs as a log other than the one in key.der", i)
			}
		}
		noTempLeft(t, dir)
	})

	t.Run("garbageKeyIsKept", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "key.der")
		garbage := []byte("not a DER EC private key")
		if err := os.WriteFile(path, garbage, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := loadOrCreateSigner(dir); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("err=%v, want one naming %s", err, path)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, garbage) {
			t.Fatal("an unparsable key.der was overwritten")
		}
		noTempLeft(t, dir)
	})
}
