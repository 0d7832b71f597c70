package ctfront

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrise/internal/metrics"
	"ctrise/internal/sct"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters.golden from this run")

// TestTamperedSCTCountersGolden pins the frontend's entire metrics
// surface for a fixed tampered-key scenario: a wrong-key backend
// quarantined mid-run, a deterministic seed, a virtual clock, and one
// weight commit: every per-backend family, with bad_scts, failures and
// healthy moving. Any drift in the per-backend counters — a bad SCT
// silently counted as a success, a quarantine that stops firing, a
// renamed series — fails against the golden file even if every
// behavioral test was updated to match.
func TestTamperedSCTCountersGolden(t *testing.T) {
	clock := newTestClock()
	specs := newLocalPool(t, clock, 3, 0)
	// log-1 signs with its own key but the frontend is configured with
	// another log's — the wrong-key/tampered-SCT condition.
	specs[1].Verifier = sct.NewFastVerifier("impostor-log")
	f, err := New(Config{Backends: specs, Seed: 5, Clock: clock.Now, BackoffBase: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := 90 * 24 * time.Hour
	for serial := uint64(1); serial <= 6; serial++ {
		if _, err := f.AddPreChain(context.Background(), [32]byte{41}, testTBS(t, serial, lifetime)); err != nil {
			t.Fatalf("serial %d: %v", serial, err)
		}
	}
	f.CommitWeights()

	var b metrics.Writer
	f.writeMetrics(&b)
	got := b.String()

	goldenPath := filepath.Join("testdata", "counters.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("tampered-SCT counter regression\n got:\n%s\nwant:\n%s", got, want)
	}

	// Belt and braces on the scenario itself, independent of the golden
	// bytes: the wrong-key backend was exercised and quarantined.
	if !strings.Contains(got, `ctfront_backend_bad_scts_total{backend="log-1"} `) {
		t.Fatal("metrics lost the bad-SCT series")
	}
	if strings.Contains(got, `ctfront_backend_bad_scts_total{backend="log-1"} 0`) {
		t.Fatal("tampered scenario never hit the wrong-key backend")
	}
}
