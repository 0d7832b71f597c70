package policy

import (
	"errors"
	"testing"
	"time"

	"ctrise/internal/ca"
	"ctrise/internal/certs"
	"ctrise/internal/ctlog"
	"ctrise/internal/sct"
)

// testDate pins the virtual time the policy tests issue at. (A fixed
// clock, not the ecosystem's: importing ecosystem here would cycle now
// that the world embeds the ctfront frontend, which runs on policy.)
func testDate(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func testClock() time.Time { return testDate(2018, 5, 1) }

func newLog(t *testing.T, name string) *ctlog.Log {
	t.Helper()
	l, err := ctlog.New(ctlog.Config{Name: name, Signer: sct.NewFastSigner(name), Clock: testClock})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func logSetOf(entries ...struct {
	l      *ctlog.Log
	op     string
	google bool
}) LogSet {
	ls := LogSet{}
	for _, e := range entries {
		ls[e.l.LogID()] = LogInfo{Name: e.l.Name(), Operator: e.op, GoogleOperated: e.google, Verifier: e.l.Verifier()}
	}
	return ls
}

type logEntry = struct {
	l      *ctlog.Log
	op     string
	google bool
}

func issue(t *testing.T, logs []ca.LogSubmitter, fault ca.Fault) (*certs.Certificate, [32]byte) {
	t.Helper()
	c, err := ca.New(ca.Config{Name: "Policy CA", Org: "Policy", Logs: logs, Clock: testClock})
	if err != nil {
		t.Fatal(err)
	}
	iss, err := c.Issue(ca.Request{Names: []string{"www.example.com", "example.com"}, EmbedSCTs: true, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	return iss.Final, c.IssuerKeyHash()
}

func TestMinSCTs(t *testing.T) {
	month := 30 * 24 * time.Hour
	cases := map[time.Duration]int{
		3 * month:  2,
		14 * month: 2,
		20 * month: 3,
		27 * month: 3,
		30 * month: 4,
		48 * month: 5,
	}
	for lifetime, want := range cases {
		if got := MinSCTs(lifetime); got != want {
			t.Errorf("MinSCTs(%v) = %d, want %d", lifetime, got, want)
		}
	}
}

func TestCompliantCertificate(t *testing.T) {
	google := newLog(t, "Google Icarus log")
	cloudflare := newLog(t, "Cloudflare Nimbus2018 Log")
	ls := logSetOf(
		logEntry{google, "Google", true},
		logEntry{cloudflare, "Cloudflare", false},
	)
	cert, ikh := issue(t, []ca.LogSubmitter{google, cloudflare}, ca.FaultNone)
	res, err := CheckEmbedded(cert, ikh, ls)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compliant {
		t.Fatalf("compliant cert rejected: %v", res.Reasons)
	}
	if res.ValidSCTs != 2 || len(res.Operators) != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestGoogleOnlyFails(t *testing.T) {
	g1 := newLog(t, "Google Pilot log")
	g2 := newLog(t, "Google Rocketeer log")
	ls := logSetOf(
		logEntry{g1, "Google", true},
		logEntry{g2, "Google", true},
	)
	cert, ikh := issue(t, []ca.LogSubmitter{g1, g2}, ca.FaultNone)
	res, err := CheckEmbedded(cert, ikh, ls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compliant {
		t.Fatal("Google-only SCTs accepted")
	}
	if !hasReason(res, ErrNoNonGoogleLog) || !hasReason(res, ErrOperatorOverlap) {
		t.Fatalf("reasons = %v", res.Reasons)
	}
}

func TestNonGoogleOnlyFails(t *testing.T) {
	l1 := newLog(t, "Comodo Mammoth CT log")
	l2 := newLog(t, "Cloudflare Nimbus2018 Log")
	ls := logSetOf(
		logEntry{l1, "Comodo", false},
		logEntry{l2, "Cloudflare", false},
	)
	cert, ikh := issue(t, []ca.LogSubmitter{l1, l2}, ca.FaultNone)
	res, err := CheckEmbedded(cert, ikh, ls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compliant || !hasReason(res, ErrNoGoogleLog) {
		t.Fatalf("res = %+v", res)
	}
}

func TestSingleSCTFails(t *testing.T) {
	g := newLog(t, "Google Pilot log")
	ls := logSetOf(logEntry{g, "Google", true})
	cert, ikh := issue(t, []ca.LogSubmitter{g}, ca.FaultNone)
	res, err := CheckEmbedded(cert, ikh, ls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compliant || !hasReason(res, ErrTooFewSCTs) {
		t.Fatalf("res = %+v", res)
	}
}

func TestInvalidSignatureFailsPolicy(t *testing.T) {
	// A misissued certificate (Section 3.4 fault) is automatically
	// non-compliant: its SCTs do not cover the reconstructed TBS.
	google := newLog(t, "Google Icarus log")
	cloudflare := newLog(t, "Cloudflare Nimbus2018 Log")
	ls := logSetOf(
		logEntry{google, "Google", true},
		logEntry{cloudflare, "Cloudflare", false},
	)
	cert, ikh := issue(t, []ca.LogSubmitter{google, cloudflare}, ca.FaultSANReorder)
	res, err := CheckEmbedded(cert, ikh, ls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compliant || !hasReason(res, ErrBadSignature) {
		t.Fatalf("res = %+v", res)
	}
}

func TestUnknownLogFails(t *testing.T) {
	known := newLog(t, "Known Log")
	rogue := newLog(t, "Rogue Log")
	ls := logSetOf(logEntry{known, "Known", true})
	cert, ikh := issue(t, []ca.LogSubmitter{known, rogue}, ca.FaultNone)
	res, err := CheckEmbedded(cert, ikh, ls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compliant || !hasReason(res, ErrUnknownLog) {
		t.Fatalf("res = %+v", res)
	}
}

func TestNoSCTsFails(t *testing.T) {
	cert := &certs.Certificate{
		Subject:   certs.Name{CommonName: "bare.example"},
		NotBefore: testDate(2018, 5, 1),
		NotAfter:  testDate(2018, 8, 1),
	}
	res, err := CheckEmbedded(cert, [32]byte{}, LogSet{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compliant || !hasReason(res, ErrNoSCTs) {
		t.Fatalf("res = %+v", res)
	}
}

func TestLongLivedCertNeedsMoreSCTs(t *testing.T) {
	// A 3-year certificate with only 2 SCTs fails the lifetime scale.
	google := newLog(t, "Google Icarus log")
	cloudflare := newLog(t, "Cloudflare Nimbus2018 Log")
	ls := logSetOf(
		logEntry{google, "Google", true},
		logEntry{cloudflare, "Cloudflare", false},
	)
	c, err := ca.New(ca.Config{
		Name: "LongLife CA", Org: "LongLife",
		Logs:     []ca.LogSubmitter{google, cloudflare},
		Clock:    testClock,
		Validity: 3 * 365 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	iss, err := c.Issue(ca.Request{Names: []string{"long.example"}, EmbedSCTs: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckEmbedded(iss.Final, c.IssuerKeyHash(), ls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compliant || !hasReason(res, ErrTooFewSCTs) {
		t.Fatalf("res = %+v", res)
	}
}

func hasReason(r Result, target error) bool {
	for _, reason := range r.Reasons {
		if errors.Is(reason, target) {
			return true
		}
	}
	return false
}
