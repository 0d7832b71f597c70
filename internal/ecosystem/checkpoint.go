package ecosystem

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/stats"
	"ctrise/internal/tlsenc"
)

// Harvest checkpointing. A paper-scale crawl over every log is hours of
// work; a killed harvester should not start over. Checkpoint serializes
// the full harvest state — the Figure 1 aggregates, the FQDN corpus,
// and a per-log resume cursor (the first entry index not yet folded
// in) — on the same length-prefixed, checksummed record codec the
// ctlog WAL uses, written atomically. ResumeHarvest loads it back, and
// HarvestLogsResumable stitches the two into a crawl that survives
// kill -9 at any point: everything observed since the last checkpoint
// dies with the process, so on resume the cursors re-stream exactly
// those entries — gap-free and double-count-free. The cursors are entry
// indices in ctlog/ctclient StreamEntries terms, so a remote harvester
// can checkpoint the resume index a failed ctclient.Monitor.StreamEntries
// call returns and continue over HTTP after a restart.

// ErrCheckpointMismatch is returned when a checkpoint's heat window does
// not match the harvest being resumed.
var ErrCheckpointMismatch = fmt.Errorf("ecosystem: checkpoint parameters mismatch")

// Checkpoint atomically writes the harvest's state plus per-log resume
// cursors to path. cursors[logName] is the first entry index of that
// log not yet folded into the harvest.
func (h *Harvest) Checkpoint(path string, cursors map[string]uint64) error {
	return storage.WriteFileAtomic(path, h.encodeCheckpoint(cursors))
}

func (h *Harvest) encodeCheckpoint(cursors map[string]uint64) []byte {
	out := append([]byte(nil), storage.CheckpointMagic...)

	// Meta: heat window, totals, and the sorted cursor table.
	logs := slices.Sorted(maps.Keys(cursors))
	b := tlsenc.NewBuilder(64 + 32*len(logs))
	b.AddUint64(uint64(h.HeatmapFrom.UnixMilli()))
	b.AddUint64(uint64(h.HeatmapTo.UnixMilli()))
	b.AddUint64(h.TotalPrecerts)
	b.AddUint64(h.TotalFinal)
	b.AddUint32(uint32(len(logs)))
	for _, name := range logs {
		b.AddUint16Vector([]byte(name))
		b.AddUint64(cursors[name])
	}
	out = storage.AppendRecord(out, storage.RecordCkptMeta, b.MustBytes())

	// One record per (org, day series): sorted orgs, sorted days.
	_, orgs, table := h.PrecertsByOrgDay.Table()
	for _, org := range orgs {
		row := table[org]
		days := slices.Sorted(maps.Keys(row))
		rb := tlsenc.NewBuilder(16 + 24*len(days))
		rb.AddUint16Vector([]byte(org))
		rb.AddUint32(uint32(len(days)))
		for _, day := range days {
			rb.AddUint16Vector([]byte(day))
			rb.AddUint64(math.Float64bits(row[day]))
		}
		out = storage.AppendRecord(out, storage.RecordCkptSeries, rb.MustBytes())
	}

	// One record per (org, per-log heat counts).
	for _, org := range slices.Sorted(maps.Keys(h.PrecertsByOrgLog)) {
		counts := h.PrecertsByOrgLog[org].Snapshot()
		names := slices.Sorted(maps.Keys(counts))
		rb := tlsenc.NewBuilder(16 + 24*len(names))
		rb.AddUint16Vector([]byte(org))
		rb.AddUint32(uint32(len(names)))
		for _, name := range names {
			rb.AddUint16Vector([]byte(name))
			rb.AddUint64(counts[name])
		}
		out = storage.AppendRecord(out, storage.RecordCkptOrgLog, rb.MustBytes())
	}

	// The FQDN corpus, chunked so no record grows unbounded.
	const namesPerRecord = 4096
	names := make([]string, 0, h.NameSet.Len())
	h.NameSet.ForEach(func(k string) { names = append(names, k) })
	sort.Strings(names)
	for start := 0; start < len(names); start += namesPerRecord {
		end := min(start+namesPerRecord, len(names))
		rb := tlsenc.NewBuilder(8 + 24*(end-start))
		rb.AddUint32(uint32(end - start))
		for _, n := range names[start:end] {
			rb.AddUint16Vector([]byte(n))
		}
		out = storage.AppendRecord(out, storage.RecordCkptNames, rb.MustBytes())
	}

	// End marker: a checkpoint without it is torn and rejected.
	return storage.AppendRecord(out, storage.RecordCkptEnd, nil)
}

// ResumeHarvest loads a checkpoint written by Checkpoint, returning the
// reconstructed harvest and the per-log resume cursors. A missing file
// is reported via os.IsNotExist on the error; a structurally invalid
// one via storage.ErrCorrupt.
func ResumeHarvest(path string) (*Harvest, map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < storage.MagicLen || string(data[:storage.MagicLen]) != string(storage.CheckpointMagic) {
		return nil, nil, fmt.Errorf("%w: bad checkpoint magic", storage.ErrCorrupt)
	}
	recs, valid := storage.ScanRecords(data[storage.MagicLen:])
	if storage.MagicLen+valid != len(data) {
		return nil, nil, fmt.Errorf("%w: %d undecodable checkpoint bytes", storage.ErrCorrupt, len(data)-storage.MagicLen-valid)
	}
	if len(recs) == 0 || recs[0].Type != storage.RecordCkptMeta {
		return nil, nil, fmt.Errorf("%w: checkpoint missing meta record", storage.ErrCorrupt)
	}
	if recs[len(recs)-1].Type != storage.RecordCkptEnd {
		return nil, nil, fmt.Errorf("%w: checkpoint missing end marker (torn write?)", storage.ErrCorrupt)
	}

	r := tlsenc.NewReader(recs[0].Payload)
	h := NewHarvest(time.UnixMilli(int64(r.Uint64())).UTC(), time.UnixMilli(int64(r.Uint64())).UTC())
	h.TotalPrecerts = r.Uint64()
	h.TotalFinal = r.Uint64()
	cursors := make(map[string]uint64)
	for n := r.Uint32(); n > 0 && r.Err() == nil; n-- {
		name := string(r.Uint16Vector())
		cursors[name] = r.Uint64()
	}
	if err := r.ExpectEmpty(); err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint meta: %v", storage.ErrCorrupt, err)
	}

	for _, rec := range recs[1 : len(recs)-1] {
		r := tlsenc.NewReader(rec.Payload)
		switch rec.Type {
		case storage.RecordCkptSeries:
			org := string(r.Uint16Vector())
			for n := r.Uint32(); n > 0 && r.Err() == nil; n-- {
				day := string(r.Uint16Vector())
				h.PrecertsByOrgDay.AddKey(org, day, math.Float64frombits(r.Uint64()))
			}
		case storage.RecordCkptOrgLog:
			org := string(r.Uint16Vector())
			c := stats.NewCounter()
			for n := r.Uint32(); n > 0 && r.Err() == nil; n-- {
				name := string(r.Uint16Vector())
				c.Add(name, r.Uint64())
			}
			h.PrecertsByOrgLog[org] = c
		case storage.RecordCkptNames:
			for n := r.Uint32(); n > 0 && r.Err() == nil; n-- {
				h.NameSet.Add(string(r.Uint16Vector()))
			}
		default:
			return nil, nil, fmt.Errorf("%w: unknown checkpoint record type %d", storage.ErrCorrupt, rec.Type)
		}
		if err := r.ExpectEmpty(); err != nil {
			return nil, nil, fmt.Errorf("%w: checkpoint record %d: %v", storage.ErrCorrupt, rec.Type, err)
		}
	}
	return h, cursors, nil
}

// HarvestLogsResumable crawls every log like HarvestLogs but survives
// being killed: progress is checkpointed to path, and an existing
// checkpoint at path is resumed from instead of starting over. The
// crawl streams each log from its cursor below the published STH;
// entries observed since the last checkpoint are only in process
// memory, so a kill re-streams exactly those entries on resume and
// never double-counts. checkpointEvery is the cadence FLOOR, not a
// bound on re-work: each checkpoint rewrites the whole harvest state,
// so the interval stretches geometrically (at least ~20% new entries
// since the last checkpoint, counting the resumed prefix) to keep
// cumulative checkpoint I/O proportional to the crawl — a kill can
// therefore lose up to max(checkpointEvery, ~20% of the entries
// crawled so far) of re-streamable work. ctx cancels between chunks
// and mid-chunk (the un-checkpointed chunk is simply re-streamed on
// resume).
//
// The final harvest equals HarvestLogs output exactly — the aggregates
// are additive and the per-entry observation is the same code path.
func (w *World) HarvestLogsResumable(ctx context.Context, heatFrom, heatTo time.Time, path string, checkpointEvery uint64) (*Harvest, error) {
	if checkpointEvery == 0 {
		checkpointEvery = 65536
	}
	h, cursors, err := ResumeHarvest(path)
	switch {
	case err == nil:
		// The checkpoint stores the window at millisecond granularity;
		// compare at the same granularity so resuming with the exact
		// arguments of the original call always matches.
		if h.HeatmapFrom.UnixMilli() != heatFrom.UnixMilli() || h.HeatmapTo.UnixMilli() != heatTo.UnixMilli() {
			return nil, fmt.Errorf("%w: checkpoint heat window %v–%v, requested %v–%v",
				ErrCheckpointMismatch, h.HeatmapFrom, h.HeatmapTo, heatFrom, heatTo)
		}
	case os.IsNotExist(err):
		h = NewHarvest(heatFrom, heatTo)
		cursors = make(map[string]uint64)
	default:
		return nil, err
	}

	p := newPartialHarvest()
	var sinceCheckpoint, totalSeen uint64
	// Seed the cadence baseline with the work the checkpoint already
	// holds, so a resumed crawl doesn't restart at the dense end of the
	// geometric schedule and rewrite the huge state every interval.
	for _, c := range cursors {
		totalSeen += c
	}
	checkpoint := func() error {
		p.mergeInto(h)
		p = newPartialHarvest()
		sinceCheckpoint = 0
		return h.Checkpoint(path, cursors)
	}
	for _, name := range w.LogNames {
		l := w.Logs[name]
		size := l.STH().TreeHead.TreeSize
		next := cursors[name]
		if next > size {
			// The log serves a smaller tree than this checkpoint already
			// folded in: the log rolled back (or this is the wrong log).
			// Re-streaming would double-count; refuse loudly.
			return nil, fmt.Errorf("%w: log %q resumed at cursor %d beyond its tree size %d (log rolled back?)",
				ErrCheckpointMismatch, name, next, size)
		}
		for next < size {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			chunkEnd := min(size-1, next+checkpointEvery-1)
			err := l.StreamEntries(next, chunkEnd, func(e *ctlog.Entry) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				p.observe(h, h.NameSet, name, e)
				return nil
			})
			if err != nil {
				return nil, err
			}
			sinceCheckpoint += chunkEnd - next + 1
			totalSeen += chunkEnd - next + 1
			next = chunkEnd + 1
			cursors[name] = next
			// Geometric cadence: a checkpoint rewrites the whole
			// harvest state, so requiring ≥20% new work since the last
			// one keeps cumulative checkpoint I/O proportional to the
			// crawl instead of quadratic in it.
			if sinceCheckpoint >= checkpointEvery && sinceCheckpoint*5 >= totalSeen {
				if err := checkpoint(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	return h, nil
}
