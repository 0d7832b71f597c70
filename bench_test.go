package ctrise_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/ctlog"
	"ctrise/internal/ecosystem"
	"ctrise/internal/experiments"
	"ctrise/internal/honeypot"
	"ctrise/internal/merkle"
	"ctrise/internal/psl"
	"ctrise/internal/scanner"
	"ctrise/internal/sct"
	"ctrise/internal/stats"
	"ctrise/internal/subenum"
	"ctrise/internal/tlsmon"
)

// The benchmark suite shares one world replay (the expensive stage) and
// regenerates each artifact per iteration, so `go test -bench=.` measures
// the cost of producing every table and figure.
var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Options{Seed: 2018, NumDomains: 8000})
		// Force the shared world replay outside individual benchmarks.
		_, _, benchErr = benchSuite.World()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// BenchmarkFigure1a regenerates the cumulative precertificate growth
// figure (log harvest + per-CA per-day aggregation).
func BenchmarkFigure1a(b *testing.B) {
	s := suite(b)
	w, _, err := s.World()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := w.HarvestLogs(ecosystem.Date(2018, 4, 1), ecosystem.Date(2018, 5, 1))
		if err != nil {
			b.Fatal(err)
		}
		days, series := h.CumulativeByOrg()
		if len(days) == 0 || len(series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure1b regenerates the relative daily update rates.
func BenchmarkFigure1b(b *testing.B) {
	s := suite(b)
	r, err := s.Figure1()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.RenderFigure1b(); out == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkFigure1c regenerates the CA×log heatmap.
func BenchmarkFigure1c(b *testing.B) {
	s := suite(b)
	r, err := s.Figure1()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.RenderFigure1c(); out == "" {
			b.Fatal("empty render")
		}
	}
}

// parallelismLevels names the worker bounds the generation-side
// benchmarks run at: the forced-sequential baseline and the full
// machine. The speedup between the two is the headline number of the
// parallel replay engine.
var parallelismLevels = []struct {
	name string
	p    int
}{
	{"p1", 1},
	{"pmax", 0}, // 0 = GOMAXPROCS
}

// BenchmarkFigure2 regenerates the daily SCT-share series: a fresh
// 13-month traffic replay through the passive monitor each iteration,
// at sequential and full parallelism.
func BenchmarkFigure2(b *testing.B) {
	for _, lvl := range parallelismLevels {
		b.Run(lvl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := tlsmon.NewMonitor()
				tlsmon.Generate(tlsmon.GenConfig{Seed: 2018, ConnsPerDay: 300, Parallelism: lvl.p}, m.Observe)
				if pts := m.Figure2(); len(pts) < 300 {
					b.Fatalf("points = %d", len(pts))
				}
			}
		})
	}
}

// BenchmarkTable1 regenerates the top-15 log table, replay included (the
// replay dominates; rendering the table from the counters is microseconds).
func BenchmarkTable1(b *testing.B) {
	for _, lvl := range parallelismLevels {
		b.Run(lvl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := tlsmon.NewMonitor()
				tlsmon.Generate(tlsmon.GenConfig{Seed: 2018, ConnsPerDay: 300, Parallelism: lvl.p}, m.Observe)
				// 15 logs are modelled; the rarest (0.01% share) may not
				// be drawn at this scale.
				if rows := m.Table1(15); len(rows) < 12 {
					b.Fatalf("rows = %d", len(rows))
				}
			}
		})
	}
}

// BenchmarkSection33 regenerates the active-scan pipeline — population
// build, sweep, invalid-SCT detection — at sequential and full
// parallelism over the shared world.
func BenchmarkSection33(b *testing.B) {
	s := suite(b)
	w, _, err := s.World()
	if err != nil {
		b.Fatal(err)
	}
	w.Clock.Set(ecosystem.Date(2018, 5, 18))
	names := make(map[sct.LogID]string, len(w.Logs))
	for name, l := range w.Logs {
		names[l.LogID()] = name
	}
	for _, lvl := range parallelismLevels {
		b.Run(lvl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sites, err := scanner.BuildPopulation(w, scanner.PopConfig{
					Seed: 2051, NumSites: 1600, Parallelism: lvl.p,
				})
				if err != nil {
					b.Fatal(err)
				}
				st, err := scanner.ScanParallel(sites, names, lvl.p)
				if err != nil {
					b.Fatal(err)
				}
				if st.TotalCerts == 0 {
					b.Fatal("empty scan")
				}
				invalid, err := scanner.DetectInvalidSCTsParallel(sites, w.Verifiers(), lvl.p)
				if err != nil {
					b.Fatal(err)
				}
				if len(invalid) != 16 {
					b.Fatalf("findings = %d", len(invalid))
				}
			}
		})
	}
}

// BenchmarkTimelineReplay runs the heavy tail of the issuance timeline
// (the March–May 2018 Let's Encrypt ramp) at sequential and full
// parallelism, over in-memory logs and over durable ones (WAL, tiles
// and snapshots in a fresh directory under b.TempDir per iteration).
// The durable/in-memory ratio is the price of the durable write path.
// World construction is a fixed small cost per iteration; the replay
// dominates.
func BenchmarkTimelineReplay(b *testing.B) {
	for _, durable := range []bool{false, true} {
		for _, lvl := range parallelismLevels {
			name := lvl.name
			if durable {
				name = "durable/" + name
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := ecosystem.Config{
						Seed:          2018,
						Scale:         1e-4,
						TimelineStart: ecosystem.Date(2018, 3, 1),
						TimelineEnd:   ecosystem.Date(2018, 5, 1),
						NumDomains:    8000,
						Parallelism:   lvl.p,
					}
					if durable {
						cfg.DataDir = b.TempDir()
					}
					w, err := ecosystem.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := w.RunTimeline(nil); err != nil {
						b.Fatal(err)
					}
					var total uint64
					for _, l := range w.Logs {
						total += l.TreeSize()
					}
					if total == 0 {
						b.Fatal("empty replay")
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSection34 regenerates the invalid-embedded-SCT findings.
func BenchmarkSection34(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Scan()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Invalid) != 16 {
			b.Fatalf("findings = %d", len(r.Invalid))
		}
	}
}

// BenchmarkTable2 regenerates the subdomain-label census.
func BenchmarkTable2(b *testing.B) {
	s := suite(b)
	_, h, err := s.World()
	if err != nil {
		b.Fatal(err)
	}
	list := psl.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := subenum.RunCensusSet(h.NameSet, list, 0)
		if top := c.Table2(20); len(top) == 0 || top[0].Key != "www" {
			b.Fatal("census shape")
		}
	}
}

// BenchmarkSection43 regenerates the full enumeration funnel
// (construction + massdns-style verification + Sonar comparison).
func BenchmarkSection43(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Section4()
		if err != nil {
			b.Fatal(err)
		}
		if r.Funnel.Constructed == 0 || len(r.Funnel.NewFQDNs) == 0 {
			b.Fatal("empty funnel")
		}
	}
}

// BenchmarkTable3 regenerates the phishing-domain table.
func BenchmarkTable3(b *testing.B) {
	s := suite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if r.Report.Total == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable4 regenerates the honeypot experiment of the seed-2018
// run: deployment, CT leak, attacker population, per-subdomain
// aggregation.
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(2018)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 11 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// --- Ablations (each pits a production design choice against the naive
// alternative it replaced) ---

// BenchmarkAblationMerkleCache compares inclusion-proof generation with
// the level cache against naive recursive rehashing. The "cached" arm
// runs the production tree: an unsealed merkle.TiledTree at the log's
// default tile span, the same type and shape an in-memory ctlog serves
// proofs from.
func BenchmarkAblationMerkleCache(b *testing.B) {
	const size = 1 << 14
	tree, err := merkle.NewTiled(ctlog.DefaultTileSpan, nil)
	if err != nil {
		b.Fatal(err)
	}
	leaves := make([][]byte, size)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
		tree.AppendLeafHash(merkle.HashLeaf(leaves[i]))
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tree.InclusionProof(uint64(i%size), size); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-rehash", func(b *testing.B) {
		b.ReportAllocs()
		var naive func(lo, hi uint64) merkle.Hash
		naive = func(lo, hi uint64) merkle.Hash {
			if hi-lo == 1 {
				return merkle.HashLeaf(leaves[lo])
			}
			k := uint64(1)
			for k*2 < hi-lo {
				k *= 2
			}
			return merkle.HashChildren(naive(lo, lo+k), naive(lo+k, hi))
		}
		var path func(i, lo, hi uint64, out *[]merkle.Hash)
		path = func(i, lo, hi uint64, out *[]merkle.Hash) {
			if hi-lo == 1 {
				return
			}
			k := uint64(1)
			for k*2 < hi-lo {
				k *= 2
			}
			if i < lo+k {
				path(i, lo, lo+k, out)
				*out = append(*out, naive(lo+k, hi))
			} else {
				path(i, lo+k, hi, out)
				*out = append(*out, naive(lo, lo+k))
			}
		}
		for i := 0; i < b.N; i++ {
			var proof []merkle.Hash
			path(uint64(i%size), 0, size, &proof)
			if len(proof) == 0 {
				b.Fatal("empty proof")
			}
		}
	})
}

// BenchmarkAblationLabelCensus compares one shared locked counter
// against the scheme the Section 4 census uses under parallel load:
// every worker fills a private counter, and the partials are merged
// once at the end, so workers never contend on a shared count.
func BenchmarkAblationLabelCensus(b *testing.B) {
	labels := make([]string, 256)
	for i := range labels {
		labels[i] = fmt.Sprintf("label-%03d", i%40)
	}
	b.Run("single-counter", func(b *testing.B) {
		c := stats.NewCounter()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				c.Inc(labels[i%len(labels)])
				i++
			}
		})
	})
	b.Run("private-merge", func(b *testing.B) {
		var mu sync.Mutex
		var partials []*stats.Counter
		b.RunParallel(func(pb *testing.PB) {
			c := stats.NewCounter()
			i := 0
			for pb.Next() {
				c.Inc(labels[i%len(labels)])
				i++
			}
			mu.Lock()
			partials = append(partials, c)
			mu.Unlock()
		})
		total := stats.NewCounter()
		for _, c := range partials {
			total.Merge(c)
		}
		var merged uint64
		for _, n := range total.Snapshot() {
			merged += n
		}
		if merged != uint64(b.N) {
			b.Fatalf("merged %d counts, want %d", merged, b.N)
		}
	})
}

// BenchmarkAblationStreamVsBatch measures honeypot reaction latency under
// a stream-only versus batch-only attacker population — quantifying the
// Section 6.2 distinction between near-real-time and batch monitors.
func BenchmarkAblationStreamVsBatch(b *testing.B) {
	run := func(b *testing.B, mode honeypot.AgentMode) time.Duration {
		b.Helper()
		b.ReportAllocs()
		var total time.Duration
		var rows int
		for i := 0; i < b.N; i++ {
			res, err := experiments.RunTable4(2018, mode)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range res.Rows {
				if !r.FirstDNS.IsZero() {
					total += r.DeltaDNS
					rows++
				}
			}
		}
		if rows == 0 {
			return 0
		}
		return total / time.Duration(rows)
	}
	b.Run("stream", func(b *testing.B) {
		mean := run(b, honeypot.ModeStream)
		b.ReportMetric(mean.Seconds(), "mean-Δt-sec")
	})
	b.Run("batch", func(b *testing.B) {
		mean := run(b, honeypot.ModeBatch)
		b.ReportMetric(mean.Seconds(), "mean-Δt-sec")
	})
}

// BenchmarkAblationCertCodec compares the synthetic bulk codec against
// real DER generation via crypto/x509 — the design choice that makes
// timeline-scale simulation feasible.
func BenchmarkAblationCertCodec(b *testing.B) {
	cert := &certs.Certificate{
		SerialNumber: 12345,
		Issuer:       certs.Name{CommonName: "Bench CA", Organization: "Bench"},
		Subject:      certs.Name{CommonName: "www.bench.example"},
		DNSNames:     []string{"www.bench.example", "bench.example", "mail.bench.example"},
		NotBefore:    ecosystem.Date(2018, 3, 1),
		NotAfter:     ecosystem.Date(2018, 6, 1),
	}
	b.Run("synthetic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc, err := cert.Encode()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := certs.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("x509-der", func(b *testing.B) {
		key, err := certs.GenerateKeyPair(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			der, err := cert.ToX509(key, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := certs.FromX509(der); err != nil {
				b.Fatal(err)
			}
		}
	})
}
