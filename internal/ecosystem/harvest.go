package ecosystem

import (
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/ctlog"
	"ctrise/internal/sct"
	"ctrise/internal/stats"
)

// Harvest is the aggregated view of all log contents — everything the
// Section 2 figures need, computed by walking every log's entries the way
// the paper's crawler walked the public logs.
type Harvest struct {
	// PrecertsByOrgDay counts precertificate entries per (CA organization,
	// day): the source of Figures 1a and 1b.
	PrecertsByOrgDay *stats.DaySeries
	// PrecertsByOrgLog counts precertificate entries per (CA organization,
	// log name) within [HeatmapFrom, HeatmapTo): Figure 1c.
	PrecertsByOrgLog map[string]*stats.Counter
	// TotalPrecerts counts all precertificate entries.
	TotalPrecerts uint64
	// TotalFinal counts final-certificate entries.
	TotalFinal uint64
	// NameSet holds all FQDNs extracted from certificate CN and SAN
	// fields, deduplicated in the crawl workers' sharded set — the
	// Section 4 input corpus. Consumers that fan out (the census) read
	// the shards in place.
	NameSet *stats.StringSet
	// HeatmapFrom/To bound the Figure 1c window.
	HeatmapFrom, HeatmapTo time.Time
}

// NewHarvest returns an empty harvest for the given Figure 1c heat
// window, with all aggregates (including the sharded FQDN set)
// initialized. The parallel crawl (HarvestLogs) builds on it.
func NewHarvest(heatFrom, heatTo time.Time) *Harvest {
	return &Harvest{
		PrecertsByOrgDay: stats.NewDaySeries(),
		PrecertsByOrgLog: make(map[string]*stats.Counter),
		NameSet:          stats.NewStringSet(0),
		HeatmapFrom:      heatFrom,
		HeatmapTo:        heatTo,
	}
}

// harvestChunk is the entry-range granularity of one work unit. Small
// enough that the largest log (Nimbus2018 after the Let's Encrypt ramp)
// splits across all workers instead of serializing on one.
const harvestChunk = 4096

// partialHarvest is one crawl task's private, lock-free aggregate. Tasks
// never share these; the merge step folds them into the final Harvest.
type partialHarvest struct {
	// dayCounts is org → day → precert count (the DaySeries rows).
	dayCounts map[string]map[string]float64
	// orgLog is org → log name → precert count within the heat window.
	orgLog map[string]map[string]uint64
	// lastDayNum/lastDayKey memoize DayKey formatting: entries within
	// a chunk overwhelmingly share a day, so the common case skips
	// time.Format entirely.
	lastDayNum    int64
	lastDayKey    string
	totalPrecerts uint64
	totalFinal    uint64
}

func newPartialHarvest() *partialHarvest {
	return &partialHarvest{
		dayCounts:  make(map[string]map[string]float64),
		orgLog:     make(map[string]map[string]uint64),
		lastDayNum: -1,
	}
}

const dayMillis = 24 * 60 * 60 * 1000

// observe folds one log entry into the partial aggregate. names is the
// sharded FQDN-dedup set all tasks share.
func (p *partialHarvest) observe(h *Harvest, names *stats.StringSet, logName string, e *ctlog.Entry) {
	// Both precert TBS bytes and final-cert bytes use the synthetic codec.
	cert, err := certs.Decode(e.Cert)
	if err != nil {
		// Foreign entries (e.g. hand-submitted DER) are counted but not
		// attributed.
		if e.Type == sct.PrecertLogEntryType {
			p.totalPrecerts++
		} else {
			p.totalFinal++
		}
		return
	}
	for _, n := range cert.Names() {
		names.Add(n)
	}
	if e.Type != sct.PrecertLogEntryType {
		p.totalFinal++
		return
	}
	p.totalPrecerts++
	millis := int64(e.Timestamp)
	if day := millis / dayMillis; day != p.lastDayNum {
		p.lastDayNum = day
		p.lastDayKey = stats.DayKey(time.UnixMilli(millis))
	}
	org := cert.Issuer.Organization
	row := p.dayCounts[org]
	if row == nil {
		row = make(map[string]float64)
		p.dayCounts[org] = row
	}
	row[p.lastDayKey]++
	ts := time.UnixMilli(millis).UTC()
	if !ts.Before(h.HeatmapFrom) && ts.Before(h.HeatmapTo) {
		ol := p.orgLog[org]
		if ol == nil {
			ol = make(map[string]uint64)
			p.orgLog[org] = ol
		}
		ol[logName]++
	}
}

// mergeInto folds the partial into the final Harvest. All contributions
// are additive, so the result is independent of worker scheduling and
// merge order.
func (p *partialHarvest) mergeInto(h *Harvest) {
	h.TotalPrecerts += p.totalPrecerts
	h.TotalFinal += p.totalFinal
	h.PrecertsByOrgDay.MergeTable(p.dayCounts)
	for org, counts := range p.orgLog {
		c := h.PrecertsByOrgLog[org]
		if c == nil {
			c = stats.NewCounter()
			h.PrecertsByOrgLog[org] = c
		}
		c.AddMap(counts)
	}
}

// HarvestLogs walks every log and aggregates, fanning out over
// Config.Parallelism workers (GOMAXPROCS when 0). heatFrom/heatTo bound
// the Figure 1c window (the paper uses April 2018).
func (w *World) HarvestLogs(heatFrom, heatTo time.Time) (*Harvest, error) {
	return w.HarvestLogsParallel(heatFrom, heatTo, w.Cfg.Parallelism)
}

// HarvestLogsParallel is HarvestLogs with an explicit worker bound:
// 0 means GOMAXPROCS, 1 runs the crawl inline. Every log is chunked into
// harvestChunk-entry ranges streamed lock-free below the published STH,
// one task per (log, range); each task builds a private partial harvest,
// and the partials merge in task order at the end.
func (w *World) HarvestLogsParallel(heatFrom, heatTo time.Time, parallelism int) (*Harvest, error) {
	type task struct {
		logName string
		log     *ctlog.Log
		r       Range
	}
	var tasks []task
	for _, name := range w.LogNames {
		l := w.Logs[name]
		for _, r := range Ranges(int(l.STH().TreeHead.TreeSize), harvestChunk) {
			tasks = append(tasks, task{name, l, r})
		}
	}

	h := NewHarvest(heatFrom, heatTo)
	partials := make([]*partialHarvest, len(tasks))
	var crawlErr FirstError
	ForEach(len(tasks), parallelism, func(i int) {
		t, p := tasks[i], newPartialHarvest()
		partials[i] = p
		crawlErr.Record(i, t.log.StreamEntries(uint64(t.r.Lo), uint64(t.r.Hi-1), func(e *ctlog.Entry) error {
			p.observe(h, h.NameSet, t.logName, e)
			return nil
		}))
	})
	if err := crawlErr.Err(); err != nil {
		return nil, err
	}
	for _, p := range partials {
		p.mergeInto(h)
	}
	return h, nil
}

// CumulativeByOrg returns, per organization, the cumulative precert counts
// aligned with Days() — Figure 1a's series.
func (h *Harvest) CumulativeByOrg() (days []string, series map[string][]float64) {
	days, orgs, table := h.PrecertsByOrgDay.Table()
	series = make(map[string][]float64, len(orgs))
	for _, org := range orgs {
		row := table[org]
		out := make([]float64, len(days))
		var sum float64
		for i, d := range days {
			sum += row[d]
			out[i] = sum
		}
		series[org] = out
	}
	return days, series
}

// DailyShareByOrg returns, per organization, each day's share of that
// day's total precert logging — Figure 1b's relative update rate.
func (h *Harvest) DailyShareByOrg() (days []string, series map[string][]float64) {
	days, orgs, table := h.PrecertsByOrgDay.Table()
	series = make(map[string][]float64, len(orgs))
	for _, org := range orgs {
		series[org] = make([]float64, len(days))
	}
	for i, day := range days {
		var total float64
		for _, org := range orgs {
			total += table[org][day]
		}
		if total == 0 {
			continue
		}
		for _, org := range orgs {
			series[org][i] = table[org][day] / total
		}
	}
	return days, series
}
