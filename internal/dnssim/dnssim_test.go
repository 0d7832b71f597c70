package dnssim

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ctrise/internal/dnsmsg"
)

func TestZoneExactLookup(t *testing.T) {
	z := NewZone("example.com")
	z.AddA("www.example.com", net.IPv4(192, 0, 2, 1))
	z.AddAAAA("www.example.com", net.ParseIP("2001:db8::1"))

	rrs, rcode := z.Lookup("www.example.com", dnsmsg.TypeA)
	if rcode != dnsmsg.RCodeSuccess || len(rrs) != 1 || !rrs[0].A.Equal(net.IPv4(192, 0, 2, 1)) {
		t.Fatalf("A lookup: %v %v", rrs, rcode)
	}
	rrs, rcode = z.Lookup("WWW.Example.Com.", dnsmsg.TypeAAAA)
	if rcode != dnsmsg.RCodeSuccess || len(rrs) != 1 {
		t.Fatalf("case-insensitive AAAA lookup: %v %v", rrs, rcode)
	}
}

func TestZoneNXDomainAndNoData(t *testing.T) {
	z := NewZone("example.com")
	z.AddA("www.example.com", net.IPv4(192, 0, 2, 1))

	if _, rcode := z.Lookup("missing.example.com", dnsmsg.TypeA); rcode != dnsmsg.RCodeNXDomain {
		t.Fatalf("missing name rcode = %v", rcode)
	}
	// Name exists (has A) but no AAAA: NOERROR with empty answer.
	rrs, rcode := z.Lookup("www.example.com", dnsmsg.TypeAAAA)
	if rcode != dnsmsg.RCodeSuccess || len(rrs) != 0 {
		t.Fatalf("no-data: %v %v", rrs, rcode)
	}
	// Out-of-zone: REFUSED.
	if _, rcode := z.Lookup("www.other.org", dnsmsg.TypeA); rcode != dnsmsg.RCodeRefused {
		t.Fatalf("out-of-zone rcode = %v", rcode)
	}
}

func TestZoneWildcard(t *testing.T) {
	z := NewZone("example.com")
	z.Add(dnsmsg.Record{Name: "*.example.com", Type: dnsmsg.TypeA, TTL: 60, A: net.IPv4(192, 0, 2, 9)})

	rrs, rcode := z.Lookup("anything.example.com", dnsmsg.TypeA)
	if rcode != dnsmsg.RCodeSuccess || len(rrs) != 1 {
		t.Fatalf("wildcard: %v %v", rrs, rcode)
	}
	if rrs[0].Name != "anything.example.com" {
		t.Fatalf("wildcard owner = %q", rrs[0].Name)
	}
	// Deep names match ancestor wildcards.
	rrs, rcode = z.Lookup("a.b.example.com", dnsmsg.TypeA)
	if rcode != dnsmsg.RCodeSuccess || len(rrs) != 1 {
		t.Fatalf("deep wildcard: %v %v", rrs, rcode)
	}
}

func TestZoneExactBeatsWildcard(t *testing.T) {
	z := NewZone("example.com")
	z.Add(dnsmsg.Record{Name: "*.example.com", Type: dnsmsg.TypeA, TTL: 60, A: net.IPv4(10, 0, 0, 1)})
	z.AddA("www.example.com", net.IPv4(192, 0, 2, 1))
	rrs, _ := z.Lookup("www.example.com", dnsmsg.TypeA)
	if !rrs[0].A.Equal(net.IPv4(192, 0, 2, 1)) {
		t.Fatalf("exact did not win: %v", rrs[0].A)
	}
}

func TestZoneDefaultA(t *testing.T) {
	z := NewZone("parked.tk")
	z.DefaultA = net.IPv4(198, 51, 100, 200)
	rrs, rcode := z.Lookup("random-control-name.parked.tk", dnsmsg.TypeA)
	if rcode != dnsmsg.RCodeSuccess || len(rrs) != 1 || !rrs[0].A.Equal(z.DefaultA) {
		t.Fatalf("default A: %v %v", rrs, rcode)
	}
	// DefaultA answers A only.
	rrs, _ = z.Lookup("random-control-name.parked.tk", dnsmsg.TypeAAAA)
	if len(rrs) != 0 {
		t.Fatalf("default A leaked into AAAA: %v", rrs)
	}
}

func TestZoneCNAMEAnswersOtherTypes(t *testing.T) {
	z := NewZone("example.com")
	z.AddCNAME("alias.example.com", "real.example.com")
	rrs, rcode := z.Lookup("alias.example.com", dnsmsg.TypeA)
	if rcode != dnsmsg.RCodeSuccess || len(rrs) != 1 || rrs[0].Type != dnsmsg.TypeCNAME {
		t.Fatalf("CNAME for A query: %v %v", rrs, rcode)
	}
}

func TestUniverseResolveChain(t *testing.T) {
	u := NewUniverse()
	z1 := NewZone("example.com")
	z1.AddCNAME("www.example.com", "lb.cdn.net")
	u.AddZone(z1)
	z2 := NewZone("cdn.net")
	z2.AddCNAME("lb.cdn.net", "edge7.cdn.net")
	z2.AddA("edge7.cdn.net", net.IPv4(203, 0, 113, 80))
	u.AddZone(z2)

	res, hops := u.ResolveChain("www.example.com", dnsmsg.TypeA, 10)
	if res.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("rcode = %v", res.RCode)
	}
	if hops != 2 {
		t.Fatalf("hops = %d", hops)
	}
	if len(res.Records) != 1 || !res.Records[0].A.Equal(net.IPv4(203, 0, 113, 80)) {
		t.Fatalf("records = %v", res.Records)
	}
}

func TestUniverseCNAMELoopCapped(t *testing.T) {
	u := NewUniverse()
	z := NewZone("loop.net")
	z.AddCNAME("a.loop.net", "b.loop.net")
	z.AddCNAME("b.loop.net", "a.loop.net")
	u.AddZone(z)
	res, hops := u.ResolveChain("a.loop.net", dnsmsg.TypeA, 10)
	if res.RCode != dnsmsg.RCodeServFail {
		t.Fatalf("rcode = %v", res.RCode)
	}
	if hops != 11 {
		t.Fatalf("hops = %d", hops)
	}
}

func TestUniverseUnknownZone(t *testing.T) {
	u := NewUniverse()
	res := u.Resolve("no.such.zone.example", dnsmsg.TypeA)
	if res.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("rcode = %v", res.RCode)
	}
}

func TestUniverseMostSpecificZone(t *testing.T) {
	u := NewUniverse()
	broad := NewZone("example.com")
	broad.AddA("x.sub.example.com", net.IPv4(10, 0, 0, 1)) // would shadow
	u.AddZone(broad)
	specific := NewZone("sub.example.com")
	specific.AddA("x.sub.example.com", net.IPv4(10, 0, 0, 2))
	u.AddZone(specific)

	res := u.Resolve("x.sub.example.com", dnsmsg.TypeA)
	if !res.Records[0].A.Equal(net.IPv4(10, 0, 0, 2)) {
		t.Fatalf("delegation: %v", res.Records[0].A)
	}
	if len(u.zones) != 2 || u.zones["sub.example.com"] != specific {
		t.Fatal("zone registry")
	}
}

func TestServerEndToEnd(t *testing.T) {
	u := NewUniverse()
	z := NewZone("hp.example")
	z.AddA("abcdefghijkl.hp.example", net.IPv4(198, 51, 100, 42))
	z.AddAAAA("abcdefghijkl.hp.example", net.ParseIP("2001:db8:77::1"))
	u.AddZone(z)

	srv := NewServer(u)
	var mu sync.Mutex
	var events []QueryEvent
	srv.OnQuery = func(ev QueryEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := &Client{Timeout: 5 * time.Second}

	// A query with EDNS client subnet, like Google Public DNS sends.
	q := dnsmsg.NewQuery(77, "abcdefghijkl.hp.example", dnsmsg.TypeA)
	q.EDNS = &dnsmsg.EDNS{ClientSubnet: &dnsmsg.ClientSubnet{
		Family: 1, SourcePrefix: 24, Address: net.IPv4(203, 0, 113, 0),
	}}
	reply, err := cli.Exchange(addr.String(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Response || !reply.Authoritative || reply.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("reply: %+v", reply)
	}
	if len(reply.Answers) != 1 || !reply.Answers[0].A.Equal(net.IPv4(198, 51, 100, 42)) {
		t.Fatalf("answers: %v", reply.Answers)
	}

	// NXDOMAIN for unknown name.
	q2 := dnsmsg.NewQuery(78, "unknown.hp.example", dnsmsg.TypeA)
	reply2, err := cli.Exchange(addr.String(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if reply2.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("rcode = %v", reply2.RCode)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Name != "abcdefghijkl.hp.example" || events[0].Type != dnsmsg.TypeA {
		t.Fatalf("event 0: %+v", events[0])
	}
	if events[0].ClientSubnet == nil || events[0].ClientSubnet.String() != "203.0.113.0/24" {
		t.Fatalf("event 0 ECS: %+v", events[0].ClientSubnet)
	}
	if events[1].RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("event 1 rcode: %v", events[1].RCode)
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	u := NewUniverse()
	srv := NewServer(u)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Server must survive; a valid query still works.
	cli := &Client{Timeout: 5 * time.Second}
	z := NewZone("ok.example")
	z.AddA("a.ok.example", net.IPv4(1, 2, 3, 4))
	u.AddZone(z)
	if _, err := cli.Exchange(addr.String(), dnsmsg.NewQuery(1, "a.ok.example", dnsmsg.TypeA)); err != nil {
		t.Fatal(err)
	}
}

func TestServerConcurrentQueries(t *testing.T) {
	u := NewUniverse()
	z := NewZone("load.example")
	for i := 0; i < 50; i++ {
		z.AddA(fmt.Sprintf("h%d.load.example", i), net.IPv4(10, 0, byte(i>>8), byte(i)))
	}
	u.AddZone(z)
	srv := NewServer(u)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := &Client{Timeout: 5 * time.Second}
			reply, err := cli.Exchange(addr.String(), dnsmsg.NewQuery(uint16(i+1), fmt.Sprintf("h%d.load.example", i), dnsmsg.TypeA))
			if err != nil {
				errs <- err
				return
			}
			if len(reply.Answers) != 1 {
				errs <- fmt.Errorf("no answer for %d", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
