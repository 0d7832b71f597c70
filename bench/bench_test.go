package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
)

// smokeParams shrinks a run to about a second: a two-tile preload under
// a cache a quarter of its leaf bytes, one set-up, short op lists.
func smokeParams() params {
	return params{
		entries:      2048,
		pageCache:    512 << 10,
		warmup:       200 * time.Millisecond,
		window:       time.Second,
		setupRepeats: 1,
		traceOps:     40,
	}
}

// checkPrinted asserts the contract on a run's output: every metric of
// the list printed exactly once with its unit, and a last line that is
// one JSON object with exactly the keys and metrics the driver expects.
func checkPrinted(t *testing.T, out string, list []metricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, m := range list {
		n := 0
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) == 5 && f[0] == "metric" && f[2] == m.Name {
				n++
				if f[4] != m.Unit {
					t.Errorf("metric %s printed with unit %q, want %q", m.Name, f[4], m.Unit)
				}
			}
		}
		if n != 1 {
			t.Errorf("metric %s printed %d times, want once", m.Name, n)
		}
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(last) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(list) {
		t.Errorf("last line carries %d metrics, want %d", len(metrics), len(list))
	}
	for _, m := range list {
		if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("last line metric %s = %+v, want a value in %s", m.Name, got, m.Unit)
		}
	}
	if string(last["correct"]) != "true" || string(last["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s, want true and 0", last["correct"], last["failed"])
	}
}

// TestSmoke runs every workload and the traced run at smoke size
// against a real ctlogd child.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	defer runCleanups()
	p := smokeParams()
	classes := map[string][]string{
		"submit": {"add"},
		"crawl":  {"entries"},
		"audit":  {"sth", "proof", "consistency"},
		"mixed":  {"add", "sth", "entries", "proof"},
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, def := range workloadDefs {
		if spec.Workloads[i].Name != def.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, def.name)
		}
		t0 := time.Now()
		res, err := runWorkload(root, def, 7, p)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		t.Logf("%s took %v", def.name, time.Since(t0))
		var out bytes.Buffer
		if err := res.print(&out, spec.EndToEnd); err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		checkPrinted(t, out.String(), spec.EndToEnd)
		for _, c := range classes[def.name] {
			if res.infoValue(c+"_ops") < 1 {
				t.Errorf("%s completed no %s request", def.name, c)
			}
		}
		if def.name == "submit" && (res.infoValue("acked_checked_after_kill") < 64 || res.infoValue("acked_lost") != 0) {
			t.Errorf("submit recovery check: %v checked, %v lost", res.infoValue("acked_checked_after_kill"), res.infoValue("acked_lost"))
		}
		for name, v := range res.metrics {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", def.name, name, v)
			}
		}
	}
	t0 := time.Now()
	res, err := runTrace(root, workloadDefs[2], 7, p)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	t.Logf("trace took %v", time.Since(t0))
	var out bytes.Buffer
	if err := res.print(&out, spec.PerLayer); err != nil {
		t.Fatalf("trace: %v", err)
	}
	checkPrinted(t, out.String(), spec.PerLayer)
	for _, c := range []string{"add", "entries", "proof", "consistency"} {
		if res.infoValue("trace.ops."+c) < 1 {
			t.Errorf("trace replayed no %s op", c)
		}
	}
}

// TestCheckersRejectCorruption serves real answers from an in-process
// log and requires each checker to accept them and to count a corrupted
// SCT, proof, consistency proof, STH or leaf as a wrong answer.
func TestCheckersRejectCorruption(t *testing.T) {
	key, err := newLogKey()
	if err != nil {
		t.Fatal(err)
	}
	l, err := ctlog.New(ctlog.Config{Name: "checker test", Signer: key.signer})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()

	const n = 9
	certs := make([][]byte, n)
	hashes := make([]merkle.Hash, n)
	scts := make([]ctlog.AddChainResponse, n)
	for i := range certs {
		certs[i] = makeCert(1, streamAdd, uint64(i))
		if scts[i], err = c.addChain(certs[i]); err != nil {
			t.Fatal(err)
		}
		if hashes[i], err = leafHashOf(certs[i], scts[i].Timestamp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.PublishSTH(); err != nil {
		t.Fatal(err)
	}

	// Flip one character of a base64 string to another valid one.
	flip := func(s string) string {
		b := []byte(s)
		if b[3] == 'A' {
			b[3] = 'B'
		} else {
			b[3] = 'A'
		}
		return string(b)
	}

	if err := checkSCT(key.verifier, certs[0], scts[0]); err != nil {
		t.Errorf("good SCT rejected: %v", err)
	}
	bad := scts[0]
	bad.Timestamp++
	if checkSCT(key.verifier, certs[0], bad) == nil {
		t.Error("SCT with a changed timestamp accepted")
	}
	if checkSCT(key.verifier, certs[1], scts[0]) == nil {
		t.Error("SCT accepted for another certificate")
	}

	sthResp, err := c.getSTH()
	if err != nil {
		t.Fatal(err)
	}
	head, err := checkSTH(key.verifier, sthResp)
	if err != nil || head.size != n {
		t.Fatalf("good STH rejected: size %d, %v", head.size, err)
	}
	badSTH := sthResp
	badSTH.TreeSize++
	if _, err := checkSTH(key.verifier, badSTH); err == nil {
		t.Error("STH with a changed size accepted")
	}

	// The leaves sort by (timestamp, hash), so find each by asking.
	proof, err := c.proofByHash(hashes[4], head.size)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInclusion(hashes[4], proof, head); err != nil {
		t.Errorf("good inclusion proof rejected: %v", err)
	}
	badProof := proof
	badProof.AuditPath = append([]string(nil), proof.AuditPath...)
	badProof.AuditPath[1] = flip(badProof.AuditPath[1])
	if checkInclusion(hashes[4], badProof, head) == nil {
		t.Error("corrupted audit path accepted")
	}
	badProof = proof
	badProof.LeafIndex ^= 1
	if checkInclusion(hashes[4], badProof, head) == nil {
		t.Error("audit path accepted at the wrong index")
	}

	ref, err := merkle.NewTiled(ctlog.DefaultTileSpan, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := c.entries(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	var page ctlog.GetEntriesResponse
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	order := make([]merkle.Hash, n)
	for i := range order {
		p, err := c.proofByHash(hashes[i], head.size)
		if err != nil {
			t.Fatal(err)
		}
		order[p.LeafIndex] = hashes[i]
	}
	for _, h := range order {
		ref.AppendLeafHash(h)
	}
	if got, err := countEntries(body); err != nil || got != n {
		t.Errorf("countEntries = %d, %v; want %d", got, err, n)
	}
	if err := checkEntries(body, order); err != nil {
		t.Errorf("good page rejected: %v", err)
	}
	page.Entries[5].LeafInput = flip(page.Entries[5].LeafInput)
	badBody, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	if checkEntries(badBody, order) == nil {
		t.Error("page with a corrupted leaf accepted")
	}
	if _, err := countEntries([]byte(`<html>busy</html>`)); err == nil {
		t.Error("non-JSON get-entries body accepted")
	}

	cons, err := c.consistency(5, head.size)
	if err != nil {
		t.Fatal(err)
	}
	root5, err := ref.RootAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkConsistency(5, root5, cons, head); err != nil {
		t.Errorf("good consistency proof rejected: %v", err)
	}
	cons.Consistency[0] = flip(cons.Consistency[0])
	if checkConsistency(5, root5, cons, head) == nil {
		t.Error("corrupted consistency proof accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 4, 7, 3, 8, 2, 9, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}
