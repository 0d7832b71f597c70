// Package ca implements the Certificate Authority engine of the
// simulation: the precertificate → SCT → final-certificate embedding flow
// of RFC 6962, log-selection policies (which drive Figure 1c's sparse
// CA×log matrix), optional logging of final certificates, and the four
// fault-injection modes that reproduce the misissuance classes of
// Section 3.4:
//
//   - FaultSANReorder (GlobalSign): the final certificate reorders SAN
//     entries relative to the precertificate.
//   - FaultExtReorder (D-TRUST): X.509 extension order changes between
//     precertificate and final certificate.
//   - FaultSANReplace (NetLock): precertificate and final certificate
//     contain entirely different SAN (and issuer) names.
//   - FaultStaleSCT (TeliaSonera): a re-issued certificate embeds the SCT
//     of the certificate it replaces.
//
// All four produce embedded SCTs whose signatures do not cover the final
// certificate's reconstructed TBS, which is exactly what the paper's
// detector finds.
package ca

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/sct"
)

// Fault selects a misissuance mode for one issuance.
type Fault uint8

// Fault modes.
const (
	FaultNone Fault = iota
	FaultSANReorder
	FaultExtReorder
	FaultSANReplace
	FaultStaleSCT
)

// String names the fault after the CA that exhibited it.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSANReorder:
		return "san-reorder (GlobalSign class)"
	case FaultExtReorder:
		return "ext-reorder (D-TRUST class)"
	case FaultSANReplace:
		return "san-replace (NetLock class)"
	case FaultStaleSCT:
		return "stale-sct (TeliaSonera class)"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// LogSubmitter abstracts a CT log from the CA's point of view. Both
// *ctlog.Log (in-process) and *ctclient.Client wrapped in an adapter
// satisfy it.
type LogSubmitter interface {
	// Name identifies the log (for Figure 1c attribution).
	Name() string
	// LogID returns the log's RFC 6962 ID.
	LogID() sct.LogID
	// AddPreChain submits a precertificate.
	AddPreChain(issuerKeyHash [32]byte, tbs []byte) (*sct.SignedCertificateTimestamp, error)
	// AddChain submits a final certificate.
	AddChain(cert []byte) (*sct.SignedCertificateTimestamp, error)
}

// Errors returned by the CA.
var (
	ErrNoLogs   = errors.New("ca: no logs configured")
	ErrNoNames  = errors.New("ca: request has no DNS names")
	ErrNoReplay = errors.New("ca: FaultStaleSCT requires a previous issuance")
)

// Config configures a CA.
type Config struct {
	// Name is the issuer common name, e.g. "Let's Encrypt Authority X3".
	Name string
	// Org is the operator organization the paper groups issuance by,
	// e.g. "Let's Encrypt".
	Org string
	// Logs are the logs this CA submits precertificates to. Every log in
	// the slice receives every precertificate (Chrome policy requires
	// multiple logs); Figure 1c's load concentration comes from CAs
	// configuring few logs here.
	Logs []LogSubmitter
	// LogFinalCerts mirrors Let's Encrypt's post-disclosure behaviour of
	// submitting final certificates too (Section 3.4's discussion).
	LogFinalCerts bool
	// Clock supplies issuance time; defaults to time.Now.
	Clock func() time.Time
	// Validity is the certificate lifetime; defaults to 90 days.
	Validity time.Duration
}

// CA issues certificates. Issue and Prepare are safe for concurrent use:
// the mutable state (serial counter, stale-SCT predecessor) sits behind a
// mutex held only for those bookkeeping reads and writes, so concurrent
// issuances serialize on nothing but the counter — certificate
// construction, encoding, and log submission all run outside the lock.
type CA struct {
	cfg           Config
	issuerKeyHash [32]byte

	mu     sync.Mutex
	serial uint64
	// lastFinal supports FaultStaleSCT: the previously issued certificate
	// whose SCTs a faulty re-issuance copies.
	lastFinal *certs.Certificate
}

// New creates a CA. The issuer key hash is derived deterministically from
// the CA name (standing in for the SHA-256 of the issuer's SPKI).
func New(cfg Config) (*CA, error) {
	if len(cfg.Logs) == 0 {
		return nil, ErrNoLogs
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Validity <= 0 {
		cfg.Validity = 90 * 24 * time.Hour
	}
	return &CA{
		cfg:           cfg,
		issuerKeyHash: sha256.Sum256([]byte("issuer-key:" + cfg.Name)),
	}, nil
}

// IssuerKeyHash returns the hash RFC 6962 places in precert entries.
func (c *CA) IssuerKeyHash() [32]byte { return c.issuerKeyHash }

// LogsFinalCerts reports whether this CA also submits final
// certificates (Config.LogFinalCerts). Pipelines that commit precert
// submissions themselves must instead run each issuance's full
// submission flow (Prepared.Submit) in issuance order for such CAs —
// the timeline's coupled commit.
func (c *CA) LogsFinalCerts() bool { return c.cfg.LogFinalCerts }

// Request describes one certificate order.
type Request struct {
	// Names are the DNS names; Names[0] becomes the subject CN.
	Names []string
	// IPAddresses are optional SAN IPs (the GlobalSign bug involved
	// certificates mixing DNS and IP SANs).
	IPAddresses []string
	// Fault selects a misissuance mode for this order.
	Fault Fault
	// EmbedSCTs controls whether the final certificate embeds the SCTs
	// (true for the post-2018 flow the paper observes ramping up).
	// When false the CA still only issues, and the site may deliver SCTs
	// via the TLS extension or OCSP instead.
	EmbedSCTs bool
	// Logs, if non-nil, overrides the CA's configured logs for this
	// order. The ecosystem timeline uses it to apply per-issuance log
	// selection policies (Figure 1c).
	Logs []LogSubmitter
}

// Issued is the result of one issuance.
type Issued struct {
	// Precert is the logged precertificate.
	Precert *certs.Certificate
	// Final is the certificate served by the site.
	Final *certs.Certificate
	// SCTs are the log promises obtained for the precertificate.
	SCTs []*sct.SignedCertificateTimestamp
	// Logs names the logs that issued the SCTs, aligned with SCTs.
	Logs []string
}

// Prepared is a planned issuance: the certificates are built and the
// precertificate TBS is encoded, but nothing has been submitted to a log
// yet. The split lets the parallel timeline replay construct certificates
// on worker goroutines and commit the log submissions separately, in a
// deterministic order.
type Prepared struct {
	ca      *CA
	req     Request
	base    *certs.Certificate
	precert *certs.Certificate
	tbs     []byte
	logs    []LogSubmitter
	// staleSCTs captures the FaultStaleSCT predecessor's SCTs at Prepare
	// time (the same value the submission-time read would have seen in a
	// sequential run).
	staleSCTs []*sct.SignedCertificateTimestamp
}

// TBS returns the encoded precertificate TBS the logs sign over.
func (p *Prepared) TBS() []byte { return p.tbs }

// IssuerKeyHash returns the hash RFC 6962 pairs with the TBS.
func (p *Prepared) IssuerKeyHash() [32]byte { return p.ca.issuerKeyHash }

// ReserveSerials atomically reserves n consecutive serial numbers,
// returning the first. Planners that fan certificate construction out
// over workers reserve a block up front and assign serials by plan
// index, keeping certificate bytes independent of worker scheduling.
func (c *CA) ReserveSerials(n uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.serial + 1
	c.serial += n
	return first
}

// Prepare plans one order: it draws the next serial and builds the
// certificates without submitting anything. Invalid orders are rejected
// before a serial is consumed, so error paths leave the serial stream
// untouched (as the pre-split Issue did).
func (c *CA) Prepare(req Request) (*Prepared, error) {
	if len(req.Names) == 0 {
		return nil, ErrNoNames
	}
	if req.Fault == FaultStaleSCT {
		c.mu.Lock()
		prev := c.lastFinal
		c.mu.Unlock()
		if prev == nil {
			return nil, ErrNoReplay
		}
	}
	return c.PrepareSerial(req, c.ReserveSerials(1))
}

// PrepareSerial is Prepare with a caller-assigned serial number, which
// must come from ReserveSerials.
func (c *CA) PrepareSerial(req Request, serial uint64) (*Prepared, error) {
	return c.PrepareSerialAt(req, serial, c.cfg.Clock())
}

// PrepareSerialAt is PrepareSerial with an explicit issuance time
// instead of the CA clock. Pipelined replays use it to construct day
// d+1's certificates while the shared virtual clock still sits on day d
// (whose submissions are being committed concurrently).
func (c *CA) PrepareSerialAt(req Request, serial uint64, now time.Time) (*Prepared, error) {
	if len(req.Names) == 0 {
		return nil, ErrNoNames
	}
	var stale []*sct.SignedCertificateTimestamp
	if req.Fault == FaultStaleSCT {
		c.mu.Lock()
		prev := c.lastFinal
		c.mu.Unlock()
		if prev == nil {
			return nil, ErrNoReplay
		}
		var err error
		if stale, err = prev.SCTs(); err != nil {
			return nil, fmt.Errorf("ca: stale-SCT fault needs an embedded predecessor: %w", err)
		}
	}
	base := &certs.Certificate{
		SerialNumber: serial,
		Issuer:       certs.Name{CommonName: c.cfg.Name, Organization: c.cfg.Org},
		Subject:      certs.Name{CommonName: req.Names[0]},
		DNSNames:     append([]string(nil), req.Names...),
		IPAddresses:  append([]string(nil), req.IPAddresses...),
		NotBefore:    now,
		NotAfter:     now.Add(c.cfg.Validity),
		Extensions: []certs.Extension{
			{OID: "2.5.29.15", Critical: true, Value: []byte{0x03, 0x02, 0x05, 0xa0}},                     // keyUsage
			{OID: "2.5.29.37", Value: []byte{0x06, 0x08, 0x2b, 0x06, 0x01, 0x05, 0x05, 0x07, 0x03, 0x01}}, // extKeyUsage serverAuth
		},
	}
	precert := base.Clone()
	precert.AddPoison()
	tbs, err := base.TBSForSCT()
	if err != nil {
		return nil, err
	}
	logs := c.cfg.Logs
	if req.Logs != nil {
		logs = req.Logs
	}
	return &Prepared{ca: c, req: req, base: base, precert: precert, tbs: tbs, logs: logs, staleSCTs: stale}, nil
}

// Submit logs the precertificate to every configured log in order and
// finalizes — the submission half of Issue.
func (p *Prepared) Submit() (*Issued, error) {
	issued := &Issued{Precert: p.precert}
	for _, l := range p.logs {
		s, err := l.AddPreChain(p.ca.issuerKeyHash, p.tbs)
		if err != nil {
			return nil, fmt.Errorf("ca: logging precert to %s: %w", l.Name(), err)
		}
		issued.SCTs = append(issued.SCTs, s)
		issued.Logs = append(issued.Logs, l.Name())
	}
	return p.finalize(issued)
}

// finalize builds the final certificate from the collected SCTs and
// optionally logs it.
func (p *Prepared) finalize(issued *Issued) (*Issued, error) {
	c := p.ca
	final := p.base.Clone()
	scts := issued.SCTs
	if p.req.Fault == FaultStaleSCT {
		// Re-issuance embedding the previous certificate's SCTs.
		scts = p.staleSCTs
	}
	if p.req.EmbedSCTs {
		if err := final.SetSCTs(scts); err != nil {
			return nil, err
		}
	}
	applyFault(final, p.req.Fault)
	issued.Final = final

	if c.cfg.LogFinalCerts {
		enc, err := final.Encode()
		if err != nil {
			return nil, err
		}
		for _, l := range p.logs {
			if _, err := l.AddChain(enc); err != nil {
				return nil, fmt.Errorf("ca: logging final cert to %s: %w", l.Name(), err)
			}
		}
	}

	if p.req.EmbedSCTs {
		c.mu.Lock()
		c.lastFinal = final
		c.mu.Unlock()
	}
	return issued, nil
}

// Issue runs the full RFC 6962 embedding flow for one order: plan,
// submit to every log, embed the SCTs.
func (c *CA) Issue(req Request) (*Issued, error) {
	p, err := c.Prepare(req)
	if err != nil {
		return nil, err
	}
	return p.Submit()
}

// applyFault mutates the final certificate after SCT issuance, so the
// embedded SCTs no longer cover its TBS.
func applyFault(final *certs.Certificate, f Fault) {
	switch f {
	case FaultSANReorder:
		if len(final.DNSNames) >= 2 {
			final.DNSNames[0], final.DNSNames[len(final.DNSNames)-1] =
				final.DNSNames[len(final.DNSNames)-1], final.DNSNames[0]
		} else if len(final.IPAddresses) >= 1 && len(final.DNSNames) >= 1 {
			// Mixed DNS/IP SANs: move the IP in front by swapping lists'
			// relative encoding order is fixed, so emulate by rotating DNS
			// names; with a single name, duplicate-swap is impossible and
			// the fault degrades to none.
		}
	case FaultExtReorder:
		if len(final.Extensions) >= 2 {
			// Swap the first two non-CT extensions.
			i, j := -1, -1
			for k, e := range final.Extensions {
				if e.OID == certs.OIDSCTList || e.OID == certs.OIDPoison {
					continue
				}
				if i < 0 {
					i = k
				} else {
					j = k
					break
				}
			}
			if i >= 0 && j >= 0 {
				final.Extensions[i], final.Extensions[j] = final.Extensions[j], final.Extensions[i]
			}
		}
	case FaultSANReplace:
		for i, n := range final.DNSNames {
			final.DNSNames[i] = "replaced-" + n
		}
		final.Subject.CommonName = "replaced-" + final.Subject.CommonName
	}
}
