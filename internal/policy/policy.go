// Package policy implements Chrome's Certificate Transparency policy as
// the paper describes it (Section 2): for a certificate to be trusted
// after the April 2018 deadline, it must carry SCTs from "diversely
// operated" logs — a minimum number of SCTs depending on certificate
// lifetime, from at least two distinct log operators, including at least
// one Google and one non-Google log for embedded SCTs.
//
// The checker runs over the same verifier map as the Section 3.4
// detector, so policy compliance and signature validity compose: an SCT
// that fails cryptographic verification also fails policy.
package policy

import (
	"errors"
	"fmt"
	"time"

	"ctrise/internal/certs"
	"ctrise/internal/sct"
)

// LogInfo describes a log for policy purposes.
type LogInfo struct {
	Name     string
	Operator string
	// GoogleOperated marks Google's own logs (the one-Google rule).
	GoogleOperated bool
	// Verifier validates this log's SCT signatures; nil skips
	// cryptographic checking for that log.
	Verifier sct.SCTVerifier
}

// LogSet maps log IDs to their metadata.
type LogSet map[sct.LogID]LogInfo

// Errors the checker reports in Result.Reasons, and ErrNonCompliant,
// which ErrUnsatisfiable wraps.
var (
	ErrNonCompliant    = errors.New("policy: certificate is not CT compliant")
	ErrNoSCTs          = errors.New("policy: no SCTs")
	ErrUnknownLog      = errors.New("policy: SCT from unknown log")
	ErrTooFewSCTs      = errors.New("policy: too few valid SCTs for lifetime")
	ErrOperatorOverlap = errors.New("policy: SCTs lack operator diversity")
	ErrNoGoogleLog     = errors.New("policy: no Google-operated log")
	ErrNoNonGoogleLog  = errors.New("policy: no non-Google-operated log")
	ErrBadSignature    = errors.New("policy: SCT signature invalid")
)

// MinSCTs returns Chrome's minimum embedded-SCT count for a certificate
// lifetime: 2 for under 15 months, 3 up to 27, 4 up to 39, 5 beyond.
func MinSCTs(lifetime time.Duration) int {
	months := lifetime.Hours() / (30 * 24)
	switch {
	case months < 15:
		return 2
	case months <= 27:
		return 3
	case months <= 39:
		return 4
	default:
		return 5
	}
}

// Result details a compliance decision.
type Result struct {
	Compliant bool
	// ValidSCTs counts cryptographically valid SCTs from known logs.
	ValidSCTs int
	// Operators are the distinct operators of valid SCTs.
	Operators []string
	// Reasons collects every failed requirement (empty when compliant).
	Reasons []error
}

// CheckEmbedded evaluates a final certificate's embedded SCTs against the
// Chrome policy. issuerKeyHash feeds TBS reconstruction for signature
// verification.
func CheckEmbedded(cert *certs.Certificate, issuerKeyHash [32]byte, logs LogSet) (Result, error) {
	var res Result
	scts, err := cert.SCTs()
	if err != nil {
		if errors.Is(err, certs.ErrNoSCTList) {
			res.Reasons = append(res.Reasons, ErrNoSCTs)
			return res, nil
		}
		return res, err
	}
	tbs, err := cert.TBSForSCT()
	if err != nil {
		return res, err
	}
	entry := sct.PrecertEntry(issuerKeyHash, tbs)

	operators := map[string]bool{}
	var google, nonGoogle bool
	for _, s := range scts {
		info, ok := logs[s.LogID]
		if !ok {
			res.Reasons = append(res.Reasons, fmt.Errorf("%w: %s", ErrUnknownLog, s.LogID))
			continue
		}
		if info.Verifier != nil {
			if err := info.Verifier.VerifySCT(s, entry); err != nil {
				res.Reasons = append(res.Reasons, fmt.Errorf("%w: log %s: %v", ErrBadSignature, info.Name, err))
				continue
			}
		}
		res.ValidSCTs++
		operators[info.Operator] = true
		if info.GoogleOperated {
			google = true
		} else {
			nonGoogle = true
		}
	}
	for op := range operators {
		res.Operators = append(res.Operators, op)
	}

	min := MinSCTs(cert.NotAfter.Sub(cert.NotBefore))
	if res.ValidSCTs < min {
		res.Reasons = append(res.Reasons, fmt.Errorf("%w: %d < %d", ErrTooFewSCTs, res.ValidSCTs, min))
	}
	if len(operators) < 2 {
		res.Reasons = append(res.Reasons, ErrOperatorOverlap)
	}
	if !google {
		res.Reasons = append(res.Reasons, ErrNoGoogleLog)
	}
	if !nonGoogle {
		res.Reasons = append(res.Reasons, ErrNoNonGoogleLog)
	}
	res.Compliant = len(res.Reasons) == 0
	return res, nil
}
