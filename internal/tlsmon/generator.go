package tlsmon

import (
	"math/rand"
	"sort"
	"time"

	"ctrise/internal/ecosystem"
)

// Channel-mix probabilities calibrated to Section 3.2's published counts
// over 26.5G connections. Classes are disjoint; the remainder carries no
// SCT.
const (
	pCertOnly = 0.21399 // 5.7G cert-channel conns minus overlaps
	pTLSOnly  = 0.11198 // 3G TLS-extension conns minus overlaps
	pOCSPOnly = 0.000019
	pCertTLS  = 0.00000116 // 30.8k of 26.5G
	pTLSOCSP  = 0.0000566  // 1.5M of 26.5G
	// pCertOCSP is 29 connections in 26.5G — below our scale's floor; the
	// class exists in the generator for completeness.
	pCertOCSP = 0.0000000011

	// pClientSupport is the fraction of ClientHellos offering the SCT
	// extension (17.7G of 26.5G).
	pClientSupport = 0.6676
)

// logShare is a per-channel log popularity entry, calibrated to Table 1.
type logShare struct {
	name   string
	weight float64
}

// certChannelShares follows Table 1's "Cert SCTs" column.
var certChannelShares = []logShare{
	{ecosystem.LogGooglePilot, 28.69},
	{ecosystem.LogSymantec, 18.40},
	{ecosystem.LogGoogleRocketeer, 17.33},
	{ecosystem.LogDigiCert, 10.01},
	{ecosystem.LogGoogleSkydiver, 5.97},
	{ecosystem.LogGoogleAviator, 5.94},
	{ecosystem.LogVenafi, 5.58},
	{ecosystem.LogDigiCert2, 3.77},
	{ecosystem.LogSymantecVega, 3.71},
	{ecosystem.LogComodoMammoth, 0.44},
	{ecosystem.LogNimbus2018, 0.05},
	{ecosystem.LogGoogleIcarus, 0.04},
	{ecosystem.LogNimbus2020, 0.02},
	{ecosystem.LogComodoSabre, 0.01},
	{ecosystem.LogCertlyIO, 0.01},
}

// tlsChannelShares follows Table 1's "TLS SCTs" column.
var tlsChannelShares = []logShare{
	{ecosystem.LogSymantec, 40.19},
	{ecosystem.LogGooglePilot, 26.03},
	{ecosystem.LogGoogleRocketeer, 23.30},
	{ecosystem.LogComodoMammoth, 3.71},
	{ecosystem.LogVenafi, 2.45},
	{ecosystem.LogComodoSabre, 1.98},
	{ecosystem.LogGoogleSkydiver, 0.89},
	{ecosystem.LogDigiCert2, 0.21},
	{ecosystem.LogSymantecVega, 0.02},
}

// shareTable is a share list compiled into a cumulative-weight table, so
// a draw costs one binary search instead of re-summing every weight. The
// replay draws from these tables once or twice per connection; the
// re-summing loop was O(len) per draw on the hottest path.
type shareTable struct {
	names []string
	cum   []float64 // cum[i] = sum of weights 0..i
	total float64
}

func newShareTable(shares []logShare) *shareTable {
	t := &shareTable{
		names: make([]string, len(shares)),
		cum:   make([]float64, len(shares)),
	}
	for i, s := range shares {
		t.total += s.weight
		t.names[i] = s.name
		t.cum[i] = t.total
	}
	return t
}

var (
	certTable = newShareTable(certChannelShares)
	tlsTable  = newShareTable(tlsChannelShares)
)

// draw samples one log name: the first entry whose cumulative weight
// exceeds a uniform draw over the total weight.
func (t *shareTable) draw(rng *rand.Rand) string {
	p := rng.Float64() * t.total
	i := sort.Search(len(t.cum), func(i int) bool { return p < t.cum[i] })
	if i == len(t.names) {
		i--
	}
	return t.names[i]
}

// secondSCTProb is the chance a connection's channel carries a second
// log's SCT (Chrome policy wants multiple logs; observed per-channel
// shares sum to slightly over 100%).
const secondSCTProb = 0.06

// drawLogs samples 1–2 log names from a share table into dst (reusing
// its backing storage). A multi-log connection carries SCTs from two
// distinct logs, as the Chrome policy intends: the second draw retries
// until it differs from the first instead of silently collapsing the
// connection back to one log.
func (t *shareTable) drawLogs(rng *rand.Rand, dst []string) []string {
	dst = append(dst[:0], t.draw(rng))
	if rng.Float64() < secondSCTProb {
		second := t.draw(rng)
		for second == dst[0] {
			second = t.draw(rng)
		}
		dst = append(dst, second)
	}
	return dst
}

// GenConfig parameterizes the traffic generator.
type GenConfig struct {
	// Seed drives all randomness. Every day of the replay derives a
	// private RNG from (Seed, day index) by seed-splitting, and the
	// burst-day selection draws from its own derived stream, so the
	// emitted connection stream depends only on Seed — not on worker
	// count or scheduling.
	Seed int64
	// Start/End bound the observation window; defaults to the paper's
	// 2017-04-26 .. 2018-05-23.
	Start, End time.Time
	// ConnsPerDay is the scaled daily connection volume. The paper saw
	// ~68M/day; 680 reproduces the shape at 1e-5 scale. Default 680.
	ConnsPerDay int
	// BurstDays is the number of graph.facebook.com burst days that cause
	// the Figure 2 peaks. Default 6.
	BurstDays int
	// BurstFactor multiplies a burst day's total traffic, the extra being
	// TLS-extension connections to graph.facebook.com. Default 2, which
	// lifts a burst day's SCT share to ≈66% like the Figure 2 peaks.
	BurstFactor int
	// Parallelism bounds the generator's worker fan-out: 0 means
	// GOMAXPROCS, 1 runs every stage inline on the calling goroutine.
	// The stream is identical at every setting.
	Parallelism int
}

func (cfg *GenConfig) setDefaults() {
	if cfg.Start.IsZero() {
		cfg.Start = ecosystem.Date(2017, 4, 26)
	}
	if cfg.End.IsZero() {
		cfg.End = ecosystem.Date(2018, 5, 23)
	}
	if cfg.ConnsPerDay <= 0 {
		cfg.ConnsPerDay = 680
	}
	if cfg.BurstDays < 0 {
		cfg.BurstDays = 0
	} else if cfg.BurstDays == 0 {
		cfg.BurstDays = 6
	}
	if cfg.BurstFactor <= 0 {
		cfg.BurstFactor = 2
	}
}

// Seed-split salts naming the generator's independent random streams.
const (
	saltBurstDays = 0x6275727374 // "burst"
	saltTraffic   = 0x74726166   // "traf"
)

// genDayChunk is the number of days one worker generates into a private
// buffer before the ordered merge emits them. Small enough that a
// 13-month window splits into ~100 chunks (ample load-balancing), large
// enough that channel traffic is negligible.
const genDayChunk = 4

// Generate synthesizes the connection stream and feeds it to emit in time
// order. It reproduces the published workload shape: the channel mix and
// log shares above, constant over time (the paper observes no immediate
// post-deadline change because certificates replace only gradually), with
// occasional graph.facebook.com bursts.
//
// Day chunks are generated by up to GenConfig.Parallelism workers into
// private buffers and emitted via an ordered merge: emit always runs on
// the calling goroutine, in day order, and the stream is identical at
// every parallelism setting. The *Connection passed to emit is reused
// for later connections — callers that retain it past the callback must
// copy it.
func Generate(cfg GenConfig, emit func(*Connection)) {
	cfg.setDefaults()

	totalDays := int(cfg.End.Sub(cfg.Start).Hours()/24) + 1
	// Burst-day selection draws from its own derived stream, up front, so
	// per-day generation is independent of it.
	burstRng := ecosystem.NewRand(ecosystem.DeriveSeed(cfg.Seed, saltBurstDays))
	burst := make(map[int]bool, cfg.BurstDays)
	for len(burst) < cfg.BurstDays && len(burst) < totalDays {
		burst[burstRng.Intn(totalDays)] = true
	}

	chunks := ecosystem.Ranges(totalDays, genDayChunk)
	// Workers recycle day-chunk buffers through a bounded free list: a
	// buffer returns after its chunk is emitted, so the steady state
	// keeps a handful of buffers in flight (producing + queued + one
	// being consumed) instead of allocating per chunk. An explicit
	// channel, unlike sync.Pool, is immune to GC flushes — the replay
	// allocates enough per run that a pool would be emptied mid-stream.
	workers := ecosystem.Workers(cfg.Parallelism, len(chunks))
	free := make(chan []Connection, 2*workers+2)
	ecosystem.ForEachOrdered(len(chunks), workers,
		func(ci int) []Connection {
			var buf []Connection
			select {
			case buf = <-free:
			default:
			}
			return generateDays(&cfg, chunks[ci], burst, buf)
		},
		func(_ int, buf []Connection) {
			for i := range buf {
				emit(&buf[i])
			}
			select {
			case free <- buf[:0]:
			default:
			}
		})
}

// generateDays fills buf with the connections of the day range [r.Lo,
// r.Hi), reusing buf's storage (and each Connection's inline log-name
// arrays) when capacity allows.
func generateDays(cfg *GenConfig, r ecosystem.Range, burst map[int]bool, buf []Connection) []Connection {
	chunkTotal := 0
	for dayIdx := r.Lo; dayIdx < r.Hi; dayIdx++ {
		chunkTotal += cfg.ConnsPerDay
		if burst[dayIdx] {
			chunkTotal += cfg.ConnsPerDay * (cfg.BurstFactor - 1)
		}
	}
	if cap(buf) < chunkTotal {
		buf = make([]Connection, 0, chunkTotal)
	}
	buf = buf[:0]
	for dayIdx := r.Lo; dayIdx < r.Hi; dayIdx++ {
		rng := ecosystem.NewRand(ecosystem.DeriveSeed(cfg.Seed, saltTraffic, uint64(dayIdx)))
		day := cfg.Start.AddDate(0, 0, dayIdx)
		n := cfg.ConnsPerDay
		total := n
		if burst[dayIdx] {
			total += n * (cfg.BurstFactor - 1)
		}
		for i := 0; i < n; i++ {
			buf = buf[:len(buf)+1]
			c := &buf[len(buf)-1]
			c.reset()
			c.Time = day.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
			c.ClientSupportsSCT = rng.Float64() < pClientSupport
			assignChannels(rng, c)
		}
		if burst[dayIdx] {
			// graph.facebook.com burst: a surge of TLS-extension SCT
			// connections to one name, lifting the day's SCT share.
			for i := 0; i < total-n; i++ {
				buf = buf[:len(buf)+1]
				c := &buf[len(buf)-1]
				c.reset()
				c.Time = day.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
				c.ServerName = "graph.facebook.com"
				c.ClientSupportsSCT = true
				c.TLSLogs = tlsTable.drawLogs(rng, c.tlsBuf())
			}
		}
	}
	return buf
}

func assignChannels(rng *rand.Rand, c *Connection) {
	p := rng.Float64()
	switch {
	case p < pCertOnly:
		c.CertLogs = certTable.drawLogs(rng, c.certBuf())
	case p < pCertOnly+pTLSOnly:
		c.TLSLogs = tlsTable.drawLogs(rng, c.tlsBuf())
	case p < pCertOnly+pTLSOnly+pOCSPOnly:
		c.OCSPLogs = tlsTable.drawLogs(rng, c.ocspBuf())
	case p < pCertOnly+pTLSOnly+pOCSPOnly+pCertTLS:
		c.CertLogs = certTable.drawLogs(rng, c.certBuf())
		c.TLSLogs = tlsTable.drawLogs(rng, c.tlsBuf())
	case p < pCertOnly+pTLSOnly+pOCSPOnly+pCertTLS+pTLSOCSP:
		c.TLSLogs = tlsTable.drawLogs(rng, c.tlsBuf())
		c.OCSPLogs = append(c.ocspBuf(), c.TLSLogs...)
	case p < pCertOnly+pTLSOnly+pOCSPOnly+pCertTLS+pTLSOCSP+pCertOCSP:
		c.CertLogs = certTable.drawLogs(rng, c.certBuf())
		c.OCSPLogs = tlsTable.drawLogs(rng, c.ocspBuf())
	}
}
