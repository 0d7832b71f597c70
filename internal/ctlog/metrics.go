package ctlog

import (
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/metrics"
)

// WriteMetrics renders the log's state for GET /metrics: how far
// sequencing and publication have got, how much is staged and for how
// long (a log falling behind its MMD shows here first), what overload
// refused, what is sealed into tiles, how long sealing took, how the
// tile page cache serves it and what sealed leaf reads read from the
// tile files (leaf bytes are never cached), how many WAL records share a write and
// an fsync, and whether the store has failed. It reads the log's own
// fields and counters at scrape time and adds nothing to the add path.
func (l *Log) WriteMetrics(w *metrics.Writer) {
	now := l.cfg.Clock().UnixMilli()
	l.stageMu.Lock()
	staged, rejected := len(l.staged), l.rejected
	// The batch is in lock order, not timestamp order: add reads the
	// clock before it takes the lock.
	oldest := now
	for _, e := range l.staged {
		oldest = min(oldest, int64(e.Timestamp))
	}
	l.stageMu.Unlock()
	sth := l.STH().TreeHead
	cache := l.CacheStats()
	var storeFailed, leafReads, leafReadBytes uint64
	if l.tiles != nil {
		leafReads, leafReadBytes = l.tiles.leafReads.Load(), l.tiles.leafReadBytes.Load()
	}
	var wal storage.AppendLogStats
	if l.store != nil {
		if l.store.Err() != nil {
			storeFailed = 1
		}
		wal = l.store.WALStats()
	}

	for _, fam := range []struct {
		name, help, typ string
		value           uint64
	}{
		{"ctlog_tree_size", "Entries sequenced into the Merkle tree (the published head may trail it).", "gauge", l.TreeSize()},
		{"ctlog_sth_tree_size", "Tree size of the latest published signed tree head.", "gauge", sth.TreeSize},
		{"ctlog_staged_entries", "Accepted submissions not yet sequenced.", "gauge", uint64(staged)},
		{"ctlog_rejected_total", "Submissions refused because the log was over capacity.", "counter", rejected},
		{"ctlog_sealed_entries", "Published entries sealed into immutable tiles.", "gauge", l.TiledThrough()},
		{"ctlog_page_cache_hits_total", "Tile page-cache hits.", "counter", cache.Hits},
		{"ctlog_page_cache_misses_total", "Tile page-cache misses (tile page-ins).", "counter", cache.Misses},
		{"ctlog_page_cache_evictions_total", "Tile pages evicted to stay within the cache budget.", "counter", cache.Evictions},
		{"ctlog_page_cache_pages", "Tile pages held in the page cache.", "gauge", uint64(cache.Pages)},
		{"ctlog_page_cache_bytes", "Bytes the page cache charges for the pages it holds.", "gauge", uint64(cache.Used)},
		{"ctlog_leaf_reads_total", "Ranged reads of sealed leaf tile files: one per sealed get-entries page or sealed entry lookup.", "counter", leafReads},
		{"ctlog_leaf_read_bytes_total", "Bytes the ranged leaf reads read: each file's header plus the records served.", "counter", leafReadBytes},
		{"ctlog_wal_records_total", "Records appended to the write-ahead log.", "counter", wal.Records},
		{"ctlog_wal_writes_total", "Writes of the write-ahead log's record buffer to its file.", "counter", wal.Writes},
		{"ctlog_wal_fsyncs_total", "Fsyncs of the write-ahead log; records per fsync is the group-commit fan-in.", "counter", wal.Fsyncs},
		{"ctlog_store_failed", "Whether the durable store has failed and refuses writes (1 = failed).", "gauge", storeFailed},
	} {
		w.Family(fam.name, fam.help, fam.typ)
		w.Uint(fam.name, fam.value)
	}
	w.Family("ctlog_sth_age_seconds", "Time since the latest published signed tree head was signed.", "gauge")
	w.Float("ctlog_sth_age_seconds", float64(now-int64(sth.Timestamp))/1000)
	w.Family("ctlog_seal_seconds_total", "Wall time spent writing, verifying and installing sealed tiles; over ctlog_sealed_entries it is the seal's cost per entry.", "counter")
	w.Float("ctlog_seal_seconds_total", float64(l.sealNanos.Load())/1e9)
	w.Family("ctlog_oldest_staged_age_seconds", "Time the oldest staged submission has waited since its SCT timestamp (0 when none is staged).", "gauge")
	w.Float("ctlog_oldest_staged_age_seconds", float64(now-oldest)/1000)
}
