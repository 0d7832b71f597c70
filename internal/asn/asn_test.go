package asn

import (
	"net"
	"testing"
)

func TestLookupLongestPrefix(t *testing.T) {
	r := NewRegistry()
	r.AddAS(AS{Number: 100, Name: "broad"})
	r.AddAS(AS{Number: 200, Name: "specific"})
	if err := r.Announce("10.0.0.0/8", 100); err != nil {
		t.Fatal(err)
	}
	if err := r.Announce("10.5.0.0/16", 200); err != nil {
		t.Fatal(err)
	}
	as, ok := r.Lookup(net.IPv4(10, 5, 1, 1))
	if !ok || as.Number != 200 {
		t.Fatalf("LPM: %v %v", as, ok)
	}
	as, ok = r.Lookup(net.IPv4(10, 6, 1, 1))
	if !ok || as.Number != 100 {
		t.Fatalf("fallback: %v %v", as, ok)
	}
}

func TestInRoutingTable(t *testing.T) {
	r := DefaultRegistry()
	if !r.InRoutingTable(net.IPv4(192, 0, 2, 50)) {
		t.Error("TEST-NET-1 should be routed")
	}
	if r.InRoutingTable(net.IPv4(8, 8, 8, 8)) {
		t.Error("8.8.8.8 is not announced in the synthetic table")
	}
	if !r.InRoutingTable(net.ParseIP("2001:db8::1")) {
		t.Error("documentation v6 space should be routed")
	}
}

func TestAnnounceRejectsBadCIDR(t *testing.T) {
	r := NewRegistry()
	if err := r.Announce("not-a-cidr", 1); err == nil {
		t.Fatal("bad CIDR accepted")
	}
}

func TestDefaultRegistryPaperASes(t *testing.T) {
	r := DefaultRegistry()
	for _, n := range []uint32{ASGoogle, ASOneAndOne, ASAmazon, ASDigitalOcean, ASDeteque, ASOpenDNS, ASQuasi, ASHetzner, ASPetersburg} {
		as := r.AS(n)
		if as == nil {
			t.Errorf("AS%d missing", n)
			continue
		}
		if as.Number != n {
			t.Errorf("AS%d number mismatch", n)
		}
	}
	if !r.AS(ASQuasi).IgnoresAbuse {
		t.Error("Quasi Networks must ignore abuse (Section 6.2)")
	}
	if len(r.ases) < 76+12 {
		t.Errorf("AS count = %d, want at least 88 (12 named + 76 batch)", len(r.ases))
	}
}

func TestDefaultRegistryBatchScannersRouted(t *testing.T) {
	r := DefaultRegistry()
	as, ok := r.Lookup(net.IPv4(10, 150, 0, 7))
	if !ok {
		t.Fatal("batch scanner prefix not routed")
	}
	if as.Number < 60000 || as.Number >= 60076 {
		t.Fatalf("unexpected AS %v", as)
	}
}

func TestASString(t *testing.T) {
	a := &AS{Number: 15169, Name: "Google"}
	if a.String() != "AS15169 (Google)" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestAddASIdempotent(t *testing.T) {
	r := NewRegistry()
	a1 := r.AddAS(AS{Number: 1, Name: "first"})
	a2 := r.AddAS(AS{Number: 1, Name: "second"})
	if a1 != a2 || a2.Name != "first" {
		t.Fatal("AddAS should be idempotent by number")
	}
}
