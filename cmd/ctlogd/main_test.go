package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestCheckDurableFlags pins ctlogd's flag check (checkFlags): durable-
// only flags are refused without -data-dir instead of being silently
// ignored by an in-memory log, a non-positive -sequence interval is
// refused, and defaults, other flags, and any durable invocation pass.
func TestCheckDurableFlags(t *testing.T) {
	for _, row := range []struct {
		args []string
		want string // "" = accepted; otherwise a substring of the error
	}{
		{args: nil},
		{args: []string{"-addr", "127.0.0.1:0", "-sequence", "2s"}},
		{args: []string{"-data-dir", "/var/lib/ctlog"}},
		{args: []string{"-data-dir", "/var/lib/ctlog", "-tile-span", "8", "-page-cache", "-1", "-snapshot-every", "100"}},
		{args: []string{"-tile-span", "8"}, want: "-tile-span set without -data-dir"},
		{args: []string{"-page-cache", "0"}, want: "-page-cache set without -data-dir"},
		{args: []string{"-snapshot-every", "-1"}, want: "-snapshot-every set without -data-dir"},
		{args: []string{"-data-dir", "", "-tile-span", "8"}, want: "-tile-span set without -data-dir"},
		{args: []string{"-tile-span", "8", "-page-cache", "1024"}, want: "-page-cache, -tile-span set without -data-dir"},
		{args: []string{"-sequence", "0s"}, want: "-sequence 0s is not a positive duration"},
		{args: []string{"-sequence", "-1s", "-data-dir", "/var/lib/ctlog"}, want: "-sequence -1s is not a positive duration"},
	} {
		t.Run(strings.Join(row.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("ctlogd", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			fs.String("addr", "", "")
			fs.Duration("sequence", time.Second, "")
			fs.String("data-dir", "", "")
			fs.Int("snapshot-every", 0, "")
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
