package dnssim

import (
	"strings"
	"sync"

	"ctrise/internal/dnsmsg"
)

// Result is the outcome of one resolution step.
type Result struct {
	RCode   dnsmsg.RCode
	Records []dnsmsg.Record
}

// Universe is the simulated global DNS: a set of zones indexed by origin.
// It is safe for concurrent use and is the backend for the massdns-like
// bulk verifier in Section 4.3.
type Universe struct {
	mu    sync.RWMutex
	zones map[string]*Zone
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{zones: make(map[string]*Zone)}
}

// AddZone registers a zone; it replaces any previous zone with the same
// origin.
func (u *Universe) AddZone(z *Zone) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.zones[z.Origin] = z
}

// findZone locates the most specific zone containing name.
func (u *Universe) findZone(name string) *Zone {
	u.mu.RLock()
	defer u.mu.RUnlock()
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	for cand := name; cand != ""; {
		if z, ok := u.zones[cand]; ok {
			return z
		}
		i := strings.IndexByte(cand, '.')
		if i < 0 {
			break
		}
		cand = cand[i+1:]
	}
	return nil
}

// Resolve answers one question without following CNAMEs (callers chase
// them, as the paper's methodology does explicitly, up to 10 hops).
func (u *Universe) Resolve(name string, qtype dnsmsg.Type) Result {
	z := u.findZone(name)
	if z == nil {
		return Result{RCode: dnsmsg.RCodeNXDomain}
	}
	rrs, rcode := z.Lookup(name, qtype)
	return Result{RCode: rcode, Records: rrs}
}

// ResolveChain resolves a name, following CNAME indirection up to
// maxHops (the paper uses 10). It returns the terminal records, the
// final rcode, and the number of CNAME hops taken. A chain longer than
// maxHops yields ServFail, mirroring resolver behaviour.
func (u *Universe) ResolveChain(name string, qtype dnsmsg.Type, maxHops int) (Result, int) {
	hops := 0
	cur := name
	for {
		res := u.Resolve(cur, qtype)
		if res.RCode != dnsmsg.RCodeSuccess || len(res.Records) == 0 {
			return res, hops
		}
		if res.Records[0].Type == dnsmsg.TypeCNAME && qtype != dnsmsg.TypeCNAME {
			hops++
			if hops > maxHops {
				return Result{RCode: dnsmsg.RCodeServFail}, hops
			}
			cur = res.Records[0].Target
			continue
		}
		return res, hops
	}
}
