package stats

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc("www")
	c.Inc("www")
	c.Add("mail", 5)
	if c.Get("www") != 2 || c.Get("mail") != 5 || c.Get("absent") != 0 {
		t.Fatal("counts")
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestCounterTopK(t *testing.T) {
	c := NewCounter()
	c.Add("www", 100)
	c.Add("mail", 50)
	c.Add("api", 50) // tie with mail: alphabetical
	c.Add("dev", 10)
	top := c.TopK(3)
	want := []KV{{"www", 100}, {"api", 50}, {"mail", 50}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("TopK = %v", top)
	}
	if got := c.TopK(100); len(got) != 4 {
		t.Fatalf("TopK(100) = %d entries", len(got))
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc("k")
			}
		}()
	}
	wg.Wait()
	if c.Get("k") != 8000 {
		t.Fatalf("count = %d", c.Get("k"))
	}
}

func TestCounterSnapshotIsCopy(t *testing.T) {
	c := NewCounter()
	c.Inc("a")
	snap := c.Snapshot()
	snap["a"] = 99
	if c.Get("a") != 1 {
		t.Fatal("snapshot aliases counter")
	}
}

func TestPercent(t *testing.T) {
	if Percent(1, 0) != 0 {
		t.Fatal("divide by zero")
	}
	if got := Percent(3261, 10000); got < 32.60 || got > 32.62 {
		t.Fatalf("Percent = %v", got)
	}
}

func TestDaySeries(t *testing.T) {
	s := NewDaySeries()
	d1 := time.Date(2018, 3, 1, 10, 0, 0, 0, time.UTC)
	d2 := time.Date(2018, 3, 2, 5, 0, 0, 0, time.UTC)
	s.AddKey("le", DayKey(d1), 10)
	s.AddKey("le", DayKey(d1.Add(2*time.Hour)), 5) // same day accumulates
	s.AddKey("le", DayKey(d2), 20)
	s.AddKey("digicert", DayKey(d2), 7)

	if days := s.Days(); !reflect.DeepEqual(days, []string{"2018-03-01", "2018-03-02"}) {
		t.Fatalf("Days = %v", days)
	}
	if _, names, _ := s.Table(); !reflect.DeepEqual(names, []string{"digicert", "le"}) {
		t.Fatalf("series names = %v", names)
	}
	if v := s.Value("le", "2018-03-01"); v != 15 {
		t.Fatalf("value = %v", v)
	}
}

func TestDayKeyUTC(t *testing.T) {
	loc := time.FixedZone("X", -10*3600)
	tm := time.Date(2018, 3, 1, 20, 0, 0, 0, loc) // 2018-03-02 06:00 UTC
	if DayKey(tm) != "2018-03-02" {
		t.Fatalf("DayKey = %q", DayKey(tm))
	}
}
