package stats

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// FNV-1a sharding must spread same-length keys over shards (the failure
// mode of length-based schemes) and be stable per key.
func TestShardSpread(t *testing.T) {
	const n = 16
	seen := make(map[int]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("label-%03d", i) // all equal length
		s := Shard(key, n)
		if s < 0 || s >= n {
			t.Fatalf("shard %d out of range", s)
		}
		if s2 := Shard(key, n); s2 != s {
			t.Fatal("shard not stable")
		}
		seen[s]++
	}
	if len(seen) < n/2 {
		t.Fatalf("only %d of %d shards used", len(seen), n)
	}
}

// Counter.Merge and AddMap are the parallel reduction steps; merged
// counters must equal a counter fed every event directly.
func TestCounterMerge(t *testing.T) {
	direct := NewCounter()
	a, b := NewCounter(), NewCounter()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i%7)
		direct.Inc(key)
		if i%2 == 0 {
			a.Inc(key)
		} else {
			b.Inc(key)
		}
	}
	merged := NewCounter()
	merged.Merge(a)
	merged.AddMap(b.Snapshot())
	if !reflect.DeepEqual(direct.Snapshot(), merged.Snapshot()) {
		t.Fatalf("merge mismatch: %v vs %v", direct.Snapshot(), merged.Snapshot())
	}
	// Self-merge must not deadlock; it doubles every count.
	merged.Merge(merged)
	if got, want := merged.Get("k0"), 2*direct.Get("k0"); got != want {
		t.Fatalf("self-merge k0 = %d, want %d", got, want)
	}
}

// DaySeries.MergeTable must reproduce a directly-fed series, and Table
// must agree with the per-cell accessors.
func TestDaySeriesMergeAndTable(t *testing.T) {
	day := func(d int) time.Time { return time.Date(2018, 4, d, 12, 0, 0, 0, time.UTC) }
	direct := NewDaySeries()
	part1, part2 := NewDaySeries(), NewDaySeries()
	for i := 0; i < 60; i++ {
		series := fmt.Sprintf("org%d", i%3)
		t := day(1 + i%9)
		direct.AddKey(series, DayKey(t), float64(i))
		if i%2 == 0 {
			part1.AddKey(series, DayKey(t), float64(i))
		} else {
			part2.AddKey(series, DayKey(t), float64(i))
		}
	}
	merged := NewDaySeries()
	_, _, table1 := part1.Table()
	merged.MergeTable(table1)
	_, _, table2 := part2.Table()
	merged.MergeTable(table2)

	days, names, table := merged.Table()
	wantDays, wantNames, _ := direct.Table()
	if !reflect.DeepEqual(days, wantDays) || !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("days/names mismatch: %v/%v vs %v/%v", days, names, wantDays, wantNames)
	}
	for _, name := range names {
		for _, d := range days {
			if table[name][d] != direct.Value(name, d) {
				t.Fatalf("(%s,%s) = %v, want %v", name, d, table[name][d], direct.Value(name, d))
			}
		}
	}
}

// A concurrently-hammered StringSet must dedupe exactly (also a -race
// exercise).
func TestStringSetConcurrent(t *testing.T) {
	set := NewStringSet(0)
	const workers = 8
	var wg sync.WaitGroup
	var added [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if set.Add(fmt.Sprintf("name-%d", i%200)) {
					added[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range added {
		total += n
	}
	if total != 200 || set.Len() != 200 {
		t.Fatalf("added=%d len=%d, want 200", total, set.Len())
	}
	snap := make(map[string]struct{})
	set.ForEach(func(k string) { snap[k] = struct{}{} })
	if len(snap) != 200 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if _, ok := snap["name-0"]; !ok {
		t.Fatal("membership")
	}
	if _, ok := snap["missing"]; ok {
		t.Fatal("membership")
	}
}
