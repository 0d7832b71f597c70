package ctrise_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ctrise/internal/ca"
	"ctrise/internal/ecosystem"
	"ctrise/internal/policy"
	"ctrise/internal/sct"
)

// TestFrontendTimelineParallelEquivalence proves the acceptance
// criterion of the multi-log frontend: timeline issuance routed through
// ctfront (Config.UseFrontend) yields byte-identical per-log STH
// trajectories — size and root at every day boundary, in day order —
// at parallelism 1, 4, and 13. Frontend routing is a pure function of
// (seed, submission bytes, backend name), so neither the worker count
// nor scheduling may move a single entry between logs or across a day
// boundary.
func TestFrontendTimelineParallelEquivalence(t *testing.T) {
	type sthState struct {
		Size uint64
		Root [32]byte
	}
	build := func(p int) (map[string][]sthState, uint64) {
		w, err := ecosystem.New(ecosystem.Config{
			Seed:          42,
			Scale:         1e-4,
			TimelineStart: ecosystem.Date(2018, 2, 20),
			TimelineEnd:   ecosystem.Date(2018, 4, 10),
			NumDomains:    1500,
			Parallelism:   p,
			UseFrontend:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		trajectory := make(map[string][]sthState, len(w.Logs))
		if err := w.RunTimeline(func(d time.Time) {
			for _, name := range w.LogNames {
				sth := w.Logs[name].STH()
				trajectory[name] = append(trajectory[name], sthState{
					Size: sth.TreeHead.TreeSize,
					Root: sth.TreeHead.RootHash,
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
		// Load-aware routing must actually be engaged — the equivalence
		// below proves weights commit deterministically, not that they
		// were never computed.
		if w.Frontend.WeightCommits() == 0 {
			t.Fatal("frontend never committed routing weights during the timeline")
		}
		var total uint64
		for _, l := range w.Logs {
			total += l.TreeSize()
		}
		return trajectory, total
	}

	want, wantTotal := build(1)
	if wantTotal == 0 {
		t.Fatal("frontend timeline issued nothing")
	}
	// The frontend must have spread load: a 90-day cert needs one
	// Google and one non-Google log, so both groups must hold entries.
	var google, nonGoogle uint64
	for name, traj := range want {
		final := traj[len(traj)-1].Size
		switch name {
		case ecosystem.LogGooglePilot, ecosystem.LogGoogleRocketeer, ecosystem.LogGoogleSkydiver,
			ecosystem.LogGoogleAviator, ecosystem.LogGoogleIcarus:
			google += final
		default:
			nonGoogle += final
		}
	}
	if google == 0 || nonGoogle == 0 {
		t.Fatalf("frontend routing is not policy-shaped: google=%d non-google=%d", google, nonGoogle)
	}
	if google+nonGoogle != wantTotal {
		t.Fatalf("trajectory sizes (%d) disagree with the logs' total (%d)", google+nonGoogle, wantTotal)
	}

	for _, p := range []int{4, 13} {
		got, gotTotal := build(p)
		if gotTotal != wantTotal {
			t.Fatalf("parallelism %d issued %d total entries, want %d", p, gotTotal, wantTotal)
		}
		if !reflect.DeepEqual(want, got) {
			for name := range want {
				if !reflect.DeepEqual(want[name], got[name]) {
					t.Fatalf("parallelism %d: %s STH trajectory diverges", p, name)
				}
			}
			t.Fatalf("parallelism %d: trajectories diverge", p)
		}
	}
}

// TestFrontendDurableTimelineMatchesInMemory routes the timeline
// through the frontend onto durable (WAL + snapshot) logs and proves
// the per-day STH trajectories are byte-identical to the in-memory
// frontend run: the fan-out, the staged sequencer, and the WAL path
// compose without disturbing determinism.
func TestFrontendDurableTimelineMatchesInMemory(t *testing.T) {
	type sthState struct {
		Size uint64
		Root [32]byte
	}
	build := func(dataDir string) map[string][]sthState {
		w, err := ecosystem.New(ecosystem.Config{
			Seed:          42,
			Scale:         1e-4,
			TimelineStart: ecosystem.Date(2018, 3, 1),
			TimelineEnd:   ecosystem.Date(2018, 3, 20),
			NumDomains:    800,
			Parallelism:   4,
			UseFrontend:   true,
			DataDir:       dataDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		trajectory := make(map[string][]sthState, len(w.Logs))
		if err := w.RunTimeline(func(d time.Time) {
			for _, name := range w.LogNames {
				sth := w.Logs[name].STH()
				trajectory[name] = append(trajectory[name], sthState{
					Size: sth.TreeHead.TreeSize,
					Root: sth.TreeHead.RootHash,
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
		return trajectory
	}
	mem := build("")
	durable := build(t.TempDir())
	if !reflect.DeepEqual(mem, durable) {
		t.Fatal("durable frontend trajectories diverge from in-memory")
	}
}

// TestFrontendTimelineBundlesCompliant replays a short timeline through
// the frontend and spot-checks that direct frontend submissions against
// the same world return policy-compliant bundles built from the world's
// Table 1 logs.
func TestFrontendTimelineBundlesCompliant(t *testing.T) {
	w, err := ecosystem.New(ecosystem.Config{
		Seed:          7,
		Scale:         1e-4,
		TimelineStart: ecosystem.Date(2018, 3, 1),
		TimelineEnd:   ecosystem.Date(2018, 3, 15),
		NumDomains:    500,
		Parallelism:   4,
		UseFrontend:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunTimeline(nil); err != nil {
		t.Fatal(err)
	}
	// Submit fresh precertificates straight at the frontend and check
	// each bundle against the policy rules and each SCT against its
	// log's verifier — the same checks the paper's detector runs.
	caInst := w.CAs[w.Specs[0].Org]
	for i := 0; i < 5; i++ {
		prep, err := caInst.Prepare(ca.Request{
			Names:     []string{w.Domains[i].Name},
			EmbedSCTs: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		bundle, err := w.Frontend.AddPreChain(context.Background(), prep.IssuerKeyHash(), prep.TBS())
		if err != nil {
			t.Fatal(err)
		}
		cands := make([]policy.Candidate, len(bundle.SCTs))
		entry := sct.PrecertEntry(prep.IssuerKeyHash(), prep.TBS())
		for j, s := range bundle.SCTs {
			l, ok := w.Logs[s.LogName]
			if !ok {
				t.Fatalf("bundle SCT from unknown log %q", s.LogName)
			}
			if err := l.Verifier().VerifySCT(s.SCT, entry); err != nil {
				t.Fatalf("SCT from %s does not verify: %v", s.LogName, err)
			}
			cands[j] = policy.Candidate{
				Name:           s.LogName,
				Operator:       s.Operator,
				GoogleOperated: l.Operator() == "Google",
			}
		}
		if !policy.SetCompliant(cands, 90*24*time.Hour) {
			t.Fatalf("bundle of %d SCTs not policy compliant", len(bundle.SCTs))
		}
	}
}
