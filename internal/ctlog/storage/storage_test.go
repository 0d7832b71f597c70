package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 1000)}
	var buf []byte
	for i, p := range payloads {
		buf = AppendRecord(buf, RecordType(i+1), p)
	}
	recs, valid := ScanRecords(buf)
	if valid != len(buf) {
		t.Fatalf("valid=%d, want %d", valid, len(buf))
	}
	if len(recs) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if rec.Type != RecordType(i+1) {
			t.Errorf("record %d type %d, want %d", i, rec.Type, i+1)
		}
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
}

// TestScanRecordsTornAndCorrupt proves the valid-prefix contract: a torn
// or bit-flipped suffix ends the prefix exactly at the last whole record.
func TestScanRecordsTornAndCorrupt(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, RecordEntry, []byte("first"))
	oneEnd := len(buf)
	buf = AppendRecord(buf, RecordEntry, []byte("second"))

	// Every truncation point mid-second-record preserves only the first.
	for cut := oneEnd; cut < len(buf); cut++ {
		recs, valid := ScanRecords(buf[:cut])
		if valid != oneEnd || len(recs) != 1 {
			t.Fatalf("cut %d: valid=%d recs=%d, want %d/1", cut, valid, len(recs), oneEnd)
		}
	}
	// A flipped bit anywhere in the second record is caught by the CRC.
	for i := oneEnd; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		recs, valid := ScanRecords(mut)
		if valid != oneEnd || len(recs) != 1 {
			t.Fatalf("flip %d: valid=%d recs=%d, want %d/1", i, valid, len(recs), oneEnd)
		}
	}
	// A flipped bit in the first record discards everything: the reader
	// cannot resynchronize past an invalid frame, by design.
	mut := append([]byte(nil), buf...)
	mut[7] ^= 0x01
	if recs, valid := ScanRecords(mut); valid != 0 || len(recs) != 0 {
		t.Fatalf("flip in first record: valid=%d recs=%d, want 0/0", valid, len(recs))
	}
}

func TestDecodeWALRejectsBadMagic(t *testing.T) {
	data := append([]byte("NOTAWAL!"), AppendRecord(nil, RecordEntry, []byte("x"))...)
	if _, _, err := decodeAppendLog(data, WALMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
	if _, _, err := decodeAppendLog([]byte("CT"), WALMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header err=%v, want ErrCorrupt", err)
	}
}

func TestSealSTHCodecs(t *testing.T) {
	seal := SealRecord{TreeSize: 42}
	copy(seal.Root[:], bytes.Repeat([]byte{0x5A}, 32))
	got, err := DecodeSeal(EncodeSeal(seal))
	if err != nil || got != seal {
		t.Fatalf("seal round trip: %+v, %v", got, err)
	}
	if _, err := DecodeSeal([]byte{1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short seal err=%v", err)
	}

	sth := STHRecord{Timestamp: 7, TreeSize: 9, Sig: []byte{1, 2, 3}}
	copy(sth.Root[:], bytes.Repeat([]byte{0x11}, 32))
	got2, err := DecodeSTH(EncodeSTH(sth))
	if err != nil || got2.Timestamp != sth.Timestamp || got2.TreeSize != sth.TreeSize ||
		got2.Root != sth.Root || !bytes.Equal(got2.Sig, sth.Sig) {
		t.Fatalf("sth round trip: %+v, %v", got2, err)
	}
	if _, err := DecodeSTH(append(EncodeSTH(sth), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing sth byte err=%v", err)
	}
}

// TestStoreAppendReopen proves records written to a store come back in
// order on reopen, and that a torn tail is truncated so appends resume
// from the last durable record.
func TestStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendEntry([]byte("leaf-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendSeal(SealRecord{TreeSize: 1}); err != nil {
		t.Fatal(err)
	}
	off, err := st.AppendEntry([]byte("leaf-2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Barrier(off); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage after the durable records.
	path := filepath.Join(dir, WALName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{byte(RecordEntry), 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var types []RecordType
	var payloads []string
	if err := st2.Replay(0, func(rec Record) error {
		types = append(types, rec.Type)
		payloads = append(payloads, string(rec.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 3 || types[0] != RecordEntry || types[1] != RecordSeal || types[2] != RecordEntry {
		t.Fatalf("replayed types %v", types)
	}
	if payloads[0] != "leaf-1" || payloads[2] != "leaf-2" {
		t.Fatalf("replayed payloads %q", payloads)
	}
	// Truncation of the torn tail is deferred until the recovery commits
	// (the caller may prefer a snapshot over a corrupt-prefix WAL);
	// after CommitRecovery the file ends exactly at the append offset.
	if err := st2.CommitRecovery(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st2.WALOffset() {
		t.Fatalf("file size %d != append offset %d", fi.Size(), st2.WALOffset())
	}
}

func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	snap := &Snapshot{
		Sequenced: [][]byte{[]byte("a"), []byte("bb")},
		Staged:    [][]byte{[]byte("ccc")},
		STH:       STHRecord{Timestamp: 5, TreeSize: 2, Sig: []byte{9}},
		WALOffset: 99,
	}
	copy(snap.Root[:], bytes.Repeat([]byte{0x42}, 32))
	data := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TreeSize() != 2 || len(got.Staged) != 1 || got.WALOffset != 99 ||
		got.Root != snap.Root || string(got.Staged[0]) != "ccc" {
		t.Fatalf("decoded %+v", got)
	}
	// Unlike the WAL, a snapshot tolerates nothing: every truncation and
	// every byte flip must be rejected.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	if _, err := DecodeSnapshot(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotOverflowingCountsRejected hand-frames a snapshot whose
// CRC-valid meta record carries entry counts that wrap uint64 when
// summed; the decoder must reject it as corrupt, not panic in make().
func TestSnapshotOverflowingCountsRejected(t *testing.T) {
	for _, counts := range [][2]uint64{
		{^uint64(0), 2},     // nSeq+nStaged wraps to 1
		{^uint64(0) - 1, 0}, // nSeq alone absurd
		{0, ^uint64(0)},     // nStaged alone absurd
		{1 << 40, 1 << 40},  // huge but non-wrapping
	} {
		meta := make([]byte, 0, 56)
		for _, v := range []uint64{counts[0], counts[1], 0} {
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (56 - 8*i))
			}
			meta = append(meta, b[:]...)
		}
		meta = append(meta, make([]byte, 32)...) // root
		img := append([]byte(nil), SnapshotMagic...)
		img = AppendRecord(img, RecordSnapMeta, meta)
		if _, err := DecodeSnapshot(img); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("counts %v: err=%v, want ErrCorrupt", counts, err)
		}
	}
}

func TestStoreSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if snap, err := st.LoadSnapshot(); err != nil || snap != nil {
		t.Fatalf("fresh dir: snap=%v err=%v", snap, err)
	}
	want := &Snapshot{Sequenced: [][]byte{[]byte("e")}, STH: STHRecord{TreeSize: 1}}
	if err := st.WriteSnapshot(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadSnapshot()
	if err != nil || got.TreeSize() != 1 {
		t.Fatalf("load: %+v, %v", got, err)
	}
	// A corrupt snapshot is reported as such, not silently absent.
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadSnapshot(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot err=%v", err)
	}
}

func TestReplayOffsetValidation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendEntry([]byte("leaf")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay consumes the records discovered at open time, so bad resume
	// offsets are judged against the reopened, validated prefix.
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Replay(st.WALOffset()+1, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("past-end replay err=%v", err)
	}
	if err := st.Replay(int64(MagicLen)+1, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-record replay err=%v", err)
	}
}

// TestStoreExclusiveLock proves one state directory admits one writer:
// a second Open fails loudly (ErrLocked) instead of the two processes
// truncating and interleaving over each other's acked records, and the
// lock dies with the holder (Close here; process exit in production).
func TestStoreExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open err=%v, want ErrLocked", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	st2.Close()
}

// TestStoreClosedIsSticky: a closed store refuses writes with ErrClosed,
// and closing it again is not an error.
func TestStoreClosedIsSticky(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendEntry([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close err=%v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close err=%v", err)
	}
}

// TestAppendLogIOErrorIsSticky makes a real write fail: the append
// log's file descriptor is closed under it, so the next Append (which
// only buffers) succeeds and the Barrier that writes it out gets EBADF
// from the kernel. That first error must stick through Err, a second
// Barrier, a second Append and Close — never replaced by a later error
// or by ErrClosed — and the durable prefix must survive for a reopen.
func TestAppendLogIOErrorIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.audit")
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	off, err := l.Append(RecordSTH, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(off); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Close(int(l.f.Fd())); err != nil {
		t.Fatal(err)
	}
	off, err = l.Append(RecordSTH, []byte("lost"))
	if err != nil {
		t.Fatalf("buffered append on a closed fd: err=%v, want nil", err)
	}
	first := l.Barrier(off)
	if !errors.Is(first, syscall.EBADF) {
		t.Fatalf("barrier on a closed fd: err=%v, want EBADF", first)
	}
	sticky := func(what string, err error) {
		t.Helper()
		if err != first {
			t.Fatalf("%s: err=%v, want the first failure %v", what, err, first)
		}
	}
	sticky("Err", l.Err())
	sticky("Barrier", l.Barrier(off))
	_, err = l.Append(RecordSTH, []byte("after"))
	sticky("second Append", err)
	l.Close() // closes the fd again: EBADF, and no second sticky error
	sticky("Err after Close", l.Err())
	_, err = l.Append(RecordSTH, []byte("after close"))
	sticky("Append after Close", err)

	l, err = OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if recs := l.Records(); len(recs) != 1 || string(recs[0].Payload) != "durable" {
		t.Fatalf("reopened with %d records, want only the durable one", len(recs))
	}
}

// TestAppendLogTornTail holds the shared append log to the WAL's
// contract under any magic: a torn tail survives open untouched (the
// caller decides), the valid prefix's records and end come back, and
// after Truncate appends continue right behind the last valid record.
func TestAppendLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.audit")
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one", "two", "three"} {
		off, err := l.Append(RecordSTH, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Barrier(off); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:MagicLen], AuditMagic) {
		t.Fatalf("header %q, want %q", data[:MagicLen], AuditMagic)
	}
	torn := len(data) - 2
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := l.Records()
	if len(recs) != 2 || string(recs[1].Payload) != "two" {
		t.Fatalf("reopened records %v, want one and two", recs)
	}
	valid := int64(MagicLen + 2*recordOverhead + len("one") + len("two"))
	if l.Offset() != valid {
		t.Fatalf("offset %d, want %d", l.Offset(), valid)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(torn) {
		t.Fatalf("open changed the file size to %d, want %d", fi.Size(), torn)
	}
	if err := l.Truncate(l.Offset()); err != nil {
		t.Fatal(err)
	}
	if l.Records() != nil {
		t.Fatal("Truncate kept the open-time records")
	}
	off, err := l.Append(RecordSTH, []byte("four"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(off); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, v, err := decodeAppendLog(data, AuditMagic)
	if err != nil || v != len(data) || len(recs) != 3 || string(recs[2].Payload) != "four" {
		t.Fatalf("after truncate+append: %d records, valid %d of %d, err %v", len(recs), v, len(data), err)
	}
}

// TestAppendLogWrongMagic: a file of another kind (a WAL opened as an
// audit chain) is ErrCorrupt and left byte-for-byte alone; a file too
// short for a header is rebuilt as an empty log.
func TestAppendLogWrongMagic(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendEntry([]byte("entry")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, WALName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAppendLog(path, AuditMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("WAL opened as an audit chain: err=%v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("a refused open modified the file")
	}

	short := filepath.Join(dir, "short.audit")
	if err := os.WriteFile(short, AuditMagic[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenAppendLog(short, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(l.Records()) != 0 || l.Offset() != MagicLen {
		t.Fatalf("header-torn file reopened with %d records at %d", len(l.Records()), l.Offset())
	}
	if data, _ := os.ReadFile(short); !bytes.Equal(data, AuditMagic) {
		t.Fatalf("header-torn file rebuilt as %q, want the bare header", data)
	}
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// reopenPayloads opens the append log at path, returns its records'
// payloads in order and closes it again.
func reopenPayloads(t *testing.T, path string) []string {
	t.Helper()
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out []string
	for _, r := range l.Records() {
		out = append(out, string(r.Payload))
	}
	return out
}

// TestAppendLogBuffersUntilBarrier: an appended record is in the
// process, not the file, until the Barrier that covers it writes it
// (one write for every record buffered since the last).
func TestAppendLogBuffersUntilBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.audit")
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var off int64
	for _, p := range []string{"one", "two"} {
		if off, err = l.Append(RecordSTH, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fileSize(t, path); got != MagicLen {
		t.Fatalf("file holds %d bytes before the barrier, want the bare header", got)
	}
	if want := int64(MagicLen + 2*recordOverhead + len("one") + len("two")); off != want || l.Offset() != want {
		t.Fatalf("append offset %d (Offset %d), want %d", off, l.Offset(), want)
	}
	if err := l.Barrier(off); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != off {
		t.Fatalf("file holds %d bytes after the barrier, want %d", got, off)
	}
	if s := l.Stats(); s != (AppendLogStats{Records: 2, Writes: 1, Fsyncs: 1}) {
		t.Fatalf("stats %+v, want 2 records, 1 write, 1 fsync", s)
	}
}

// TestAppendLogCloseWritesBuffer: Close writes what no Barrier has, so
// a reopen sees every record appended before it.
func TestAppendLogCloseWritesBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.audit")
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecordSTH, []byte("unbarriered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenPayloads(t, path); len(got) != 1 || got[0] != "unbarriered" {
		t.Fatalf("reopened with %q, want the unbarriered record", got)
	}
}

// TestAppendLogTruncateDropsBuffered: Truncate discards the buffered
// bytes it cuts — above the file's end (the buffer shrinks) and below
// it (the buffer empties and the file is cut) — and appends continue
// at the cut.
func TestAppendLogTruncateDropsBuffered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.audit")
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	off, err := l.Append(RecordSTH, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(off); err != nil {
		t.Fatal(err)
	}
	keep, err := l.Append(RecordSTH, []byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecordSTH, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != off {
		t.Fatalf("truncating the buffer changed the file to %d bytes, want %d", got, off)
	}
	last, err := l.Append(RecordSTH, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(last); err != nil {
		t.Fatal(err)
	}
	if got := filePayloads(t, path); len(got) != 3 || got[0] != "durable" || got[1] != "kept" || got[2] != "after" {
		t.Fatalf("file holds %q, want durable, kept, after", got)
	}

	// Below the file's end: the buffered record and the written ones
	// past the cut all go.
	if _, err := l.Append(RecordSTH, []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(MagicLen); err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(l.Offset() + 1); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != MagicLen || l.Offset() != MagicLen {
		t.Fatalf("after a cut to the header: file %d bytes, offset %d, want %d", got, l.Offset(), MagicLen)
	}
}

// filePayloads returns the payloads of the records in the file at
// path, read without opening it as a log (its writer still holds the
// lock).
func filePayloads(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeAppendLog(data, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range recs {
		out = append(out, string(r.Payload))
	}
	return out
}

// TestAppendLogFullBufferWritesInOrder: once walBufferSize bytes are
// buffered, Append writes them out without a barrier, and records on
// both sides of that write keep their append order in the file.
func TestAppendLogFullBufferWritesInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.audit")
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	const size = 4096
	perWrite := (walBufferSize + size + recordOverhead - 1) / (size + recordOverhead)
	n := perWrite + perWrite/2
	payload := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i)}, size)
		copy(p, fmt.Sprintf("record-%04d", i))
		return p
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(RecordSTH, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fileSize(t, path), int64(MagicLen+perWrite*(size+recordOverhead)); got != want {
		t.Fatalf("file holds %d bytes before any barrier, want %d (the first %d records)", got, want, perWrite)
	}
	if s := l.Stats(); s.Writes != 1 || s.Fsyncs != 0 {
		t.Fatalf("stats %+v, want one write and no fsync", s)
	}
	if err := l.Barrier(l.Offset()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := reopenPayloads(t, path)
	if len(got) != n {
		t.Fatalf("reopened with %d records, want %d", len(got), n)
	}
	for i, p := range got {
		if p != string(payload(i)) {
			t.Fatalf("record %d is %.11q, want %.11q", i, p, payload(i))
		}
	}
}

// TestStoreReopenRemovesOrphanTemps: temp files a crash inside
// WriteFileAtomic left beside the snapshot or a tile are removed by the
// Open that holds the lock — not by one refused with ErrLocked — and
// every other file, ctlogd's key temp files included, is left alone.
func TestStoreReopenRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plant := func(names ...string) {
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	orphans := []string{
		SnapshotName + ".tmp123",
		filepath.Join(TilesDirName, "0000000000000000.leaf.tmp456"),
		filepath.Join(TilesDirName, "0000000000000001.idx.tmp7"),
	}
	kept := []string{
		SnapshotName,
		"key.der.tmp789",
		"notes.tmp1",
		filepath.Join(TilesDirName, "0000000000000000.leaf"),
	}
	plant(orphans...)
	plant(kept...)
	exists := func(name string) bool {
		_, err := os.Stat(filepath.Join(dir, name))
		return err == nil
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open err=%v, want ErrLocked", err)
	}
	for _, name := range orphans {
		if !exists(name) {
			t.Fatalf("an Open refused the lock removed %s", name)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, name := range orphans {
		if exists(name) {
			t.Errorf("reopen left orphan %s", name)
		}
	}
	for _, name := range kept {
		if !exists(name) {
			t.Errorf("reopen removed %s", name)
		}
	}
}

// TestAppendLogConcurrentAppendsAndBarriers: appenders on several
// goroutines, each waiting on its own record's Barrier, share the
// buffer and the group commit. Every barrier returns with its record in
// the file, no record is lost or torn, and no more fsyncs run than
// records were appended.
func TestAppendLogConcurrentAppendsAndBarriers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.audit")
	l, err := OpenAppendLog(path, AuditMagic)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				off, err := l.Append(RecordSTH, []byte(fmt.Sprintf("w%d-%03d", w, i)))
				if err == nil {
					err = l.Barrier(off)
				}
				if err == nil {
					var fi os.FileInfo
					if fi, err = os.Stat(path); err == nil && fi.Size() < off {
						err = fmt.Errorf("barrier returned with the file below %d", off)
					}
				}
				if err != nil {
					t.Errorf("writer %d record %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := l.Stats(); s.Records != writers*each || s.Fsyncs > s.Records || s.Writes > s.Fsyncs {
		t.Fatalf("stats %+v for %d records", s, writers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	next := make([]int, writers)
	got := reopenPayloads(t, path)
	for _, p := range got {
		var w, i int
		if _, err := fmt.Sscanf(p, "w%d-%d", &w, &i); err != nil || w >= writers || i != next[w] {
			t.Fatalf("record %q out of order (want writer %d's record %d)", p, w, next[w])
		}
		next[w]++
	}
	if len(got) != writers*each {
		t.Fatalf("reopened with %d records, want %d", len(got), writers*each)
	}
}
