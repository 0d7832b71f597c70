package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctrise/internal/load"
)

// The load driver. internal/load.Run's paced mode times a request from
// when it was actually sent, which hides the queueing a stall imposes on
// later requests; this driver owns both loops instead and reuses only
// internal/load.Histogram.
//
//   - closed loop (rate 0): each connection sends its next request when
//     the previous one completes.
//   - open loop (rate > 0): request k is due at start + k/rate whatever
//     the server is doing. Connections take the next due request in
//     turn; one that is already overdue is sent at once. Latency runs
//     from the due time, and how late the generator itself sent is
//     recorded beside it.

// class is one request class.
type class int

const (
	classAdd class = iota
	classSTH
	classEntries
	classProof
	classConsistency
	numClasses
)

var classNames = [numClasses]string{"add", "sth", "entries", "proof", "consistency"}

// latencyLimit is the service-level limit within_limit_share counts
// against: a request sent must complete correctly within this long of
// being due.
const latencyLimit = 20 * time.Millisecond

// sampleEvery is the rate of the expensive checks (signature
// verification, Merkle paths, leaf re-hashing): one request in this
// many per class and connection, starting with the first.
const sampleEvery = 64

// worker is one connection and everything private to it.
type worker struct {
	id      int
	conn    *conn
	rng     rng
	sampled [numClasses]uint64
	cursor  uint64 // crawl: next index to fetch
	acked   []ackedCert
	st      *windowStats
}

// sample reports whether this request of class c gets the full check.
func (w *worker) sample(c class) bool {
	w.sampled[c]++
	return w.sampled[c]%sampleEvery == 1
}

type classStats struct {
	hist   load.Histogram
	ok     int64
	failed int64
}

// windowStats is what one window records: per worker while it runs,
// merged into one afterwards. Whole-window histograms exist per class;
// the one-second slices hold the headline class only (every class when
// headline is numClasses).
type windowStats struct {
	elapsed  time.Duration
	classes  [numClasses]classStats
	slices   []*load.Histogram
	sliceOK  []int64 // correct completions of any class per slice
	late     load.Histogram
	within   int64
	errs     []string
	headline class
}

func newWindowStats(seconds int, headline class) *windowStats {
	st := &windowStats{headline: headline, slices: make([]*load.Histogram, seconds), sliceOK: make([]int64, seconds)}
	for i := range st.slices {
		st.slices[i] = new(load.Histogram)
	}
	return st
}

func (st *windowStats) record(c class, err error, start, due, sent, done time.Time) {
	cs := &st.classes[c]
	if err != nil {
		cs.failed++
		if len(st.errs) < 3 {
			st.errs = append(st.errs, fmt.Sprintf("%s: %v", classNames[c], err))
		}
		return
	}
	lat := done.Sub(due)
	cs.ok++
	cs.hist.Record(lat)
	st.late.Record(sent.Sub(due))
	if lat <= latencyLimit {
		st.within++
	}
	if i := int(done.Sub(start) / time.Second); i < len(st.slices) {
		st.sliceOK[i]++
		if st.headline == numClasses || st.headline == c {
			st.slices[i].Record(lat)
		}
	}
}

func (st *windowStats) merge(o *windowStats) {
	for c := range o.classes {
		st.classes[c].hist.Merge(&o.classes[c].hist)
		st.classes[c].ok += o.classes[c].ok
		st.classes[c].failed += o.classes[c].failed
	}
	for i := range st.slices {
		st.slices[i].Merge(o.slices[i])
		st.sliceOK[i] += o.sliceOK[i]
	}
	st.late.Merge(&o.late)
	st.within += o.within
	st.errs = append(st.errs, o.errs...)
}

// opFunc performs one request on w's connection, drawing its choices
// from rg, checks the answer, and reports the class it belonged to.
type opFunc func(w *worker, rg *rng) (class, error)

func (ws *windowStats) attempted() (n int64) {
	for i := range ws.classes {
		n += ws.classes[i].ok + ws.classes[i].failed
	}
	return n
}

func (ws *windowStats) failed() (n int64) {
	for i := range ws.classes {
		n += ws.classes[i].failed
	}
	return n
}

// headlineHist is the whole-window histogram of the headline class.
func (ws *windowStats) headlineHist() *load.Histogram {
	if ws.headline < numClasses {
		return &ws.classes[ws.headline].hist
	}
	all := new(load.Histogram)
	for i := range ws.classes {
		all.Merge(&ws.classes[i].hist)
	}
	return all
}

// drive runs one window of dur on the workers: closed loop when rate is
// 0, open loop at rate requests per second otherwise. window numbers
// the windows of a run so the open loop's request streams differ.
func drive(workers []*worker, op opFunc, seed int64, window uint64, dur time.Duration, rate float64, headline class) *windowStats {
	seconds := int(dur / time.Second)
	for _, w := range workers {
		w.st = newWindowStats(seconds, headline)
	}
	var next atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard()
			if rate == 0 {
				for {
					t0 := time.Now()
					if !t0.Before(end) {
						return
					}
					c, err := op(w, &w.rng)
					w.st.record(c, err, start, t0, t0, time.Now())
				}
			}
			for {
				k := next.Add(1) - 1
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				rg := newRNG(seed, streamOpen, window<<40|k)
				c, err := op(w, &rg)
				w.st.record(c, err, start, due, sent, time.Now())
			}
		}()
	}
	wg.Wait()
	ws := newWindowStats(seconds, headline)
	ws.elapsed = time.Since(start)
	for _, w := range workers {
		ws.merge(w.st)
	}
	for _, e := range ws.errs {
		fmt.Fprintln(os.Stderr, "bench: failed op:", e)
	}
	return ws
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quiet is the statistic the timed metrics are reported with: the
// better quartile of the window's one-second slices — the upper quartile
// of a rate, the lower quartile of a latency or a cost. The benchmark's
// host is a small shared machine whose neighbours slow it for seconds at
// a time and never speed it up, so the better quartile estimates the
// undisturbed machine where a median would follow the disturbance.
// Windows shorter than four slices fall back to the median.
func quiet(v []float64, higherIsBetter bool) float64 {
	if len(v) < 4 {
		return median(v)
	}
	q1, _, q3 := quartiles(v)
	if higherIsBetter {
		return q3
	}
	return q1
}

// sliceQuantiles is the q-quantile of the headline class in each
// one-second slice that completed anything, in ms.
func (ws *windowStats) sliceQuantiles(q float64) []float64 {
	var v []float64
	for _, h := range ws.slices {
		if h.Count() > 0 {
			v = append(v, ms(h.Quantile(q)))
		}
	}
	if len(v) == 0 {
		v = append(v, ms(ws.headlineHist().Quantile(q)))
	}
	return v
}

// sliceRates is correct completions in each one-second slice.
func (ws *windowStats) sliceRates() []float64 {
	if len(ws.sliceOK) == 0 {
		return []float64{float64(ws.attempted()-ws.failed()) / ws.elapsed.Seconds()}
	}
	v := make([]float64, len(ws.sliceOK))
	for i, n := range ws.sliceOK {
		v[i] = float64(n)
	}
	return v
}
