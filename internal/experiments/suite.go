// Package experiments provides one entry point per table and figure of
// the paper, gluing the substrate packages into the exact pipelines the
// authors ran. cmd/ctrise renders them; bench_test.go regenerates each
// artifact as a benchmark. Results cache within a Suite so artifacts
// sharing a pipeline stage (e.g. Figures 1a–1c share one timeline replay)
// pay for it once.
package experiments

import (
	"sync"

	"ctrise/internal/ecosystem"
)

// Options configures a Suite.
type Options struct {
	// Seed drives all randomness; same seed, same report.
	Seed int64
	// Scale multiplies the default simulation scale (1.0 keeps the
	// test-friendly defaults; 10 gives smoother curves at ~10x runtime).
	Scale float64
	// NumDomains overrides the registrable-domain population size.
	NumDomains int
	// Parallelism bounds the worker fan-out of every pipeline — the
	// generation side (timeline issuance replay, Figure 2 traffic
	// replay, scan population build and sweep) and the harvest-and-
	// analysis side (log crawl, census, candidate construction,
	// massdns-style verification). 0 means GOMAXPROCS; 1 runs every
	// stage inline on the calling goroutine. Results are identical at
	// every setting.
	Parallelism int
}

func (o *Options) setDefaults() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.NumDomains <= 0 {
		o.NumDomains = 20000
	}
}

// Suite runs experiments with shared, cached pipeline stages.
type Suite struct {
	opts Options

	mu       sync.Mutex
	world    *ecosystem.World
	harvest  *ecosystem.Harvest
	worldErr error
}

// NewSuite returns a Suite for the given options.
func NewSuite(opts Options) *Suite {
	opts.setDefaults()
	return &Suite{opts: opts}
}

// worldScale is the base issuance scale factor at Scale=1.
const worldScale = 1e-4

// World returns the shared ecosystem world after a full timeline replay,
// building it on first use.
func (s *Suite) World() (*ecosystem.World, *ecosystem.Harvest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.world != nil || s.worldErr != nil {
		return s.world, s.harvest, s.worldErr
	}
	w, err := ecosystem.New(ecosystem.Config{
		Seed:        s.opts.Seed,
		Scale:       worldScale * s.opts.Scale,
		NumDomains:  s.opts.NumDomains,
		Parallelism: s.opts.Parallelism,
	})
	if err != nil {
		s.worldErr = err
		return nil, nil, err
	}
	if err := w.RunTimeline(nil); err != nil {
		s.worldErr = err
		return nil, nil, err
	}
	h, err := w.HarvestLogs(ecosystem.Date(2018, 4, 1), ecosystem.Date(2018, 5, 1))
	if err != nil {
		s.worldErr = err
		return nil, nil, err
	}
	s.world, s.harvest = w, h
	return w, h, nil
}
