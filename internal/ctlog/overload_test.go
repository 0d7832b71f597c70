package ctlog

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ctrise/internal/sct"
)

// Section 3.4 closes with a risk the disclosure discussion surfaced: "a
// mass submission of valid unlogged final certificates could be used to
// overwhelm logs, which could lead to log disqualification". This test
// reproduces the attack shape against a capacity-limited log and
// measures the collateral damage to legitimate CA traffic.
func TestMassFinalCertSubmissionOverwhelmsLog(t *testing.T) {
	clk := &virtualClock{now: time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)}
	signer := sct.NewFastSigner("victim log")
	l, err := New(Config{
		Name:              "Victim Log",
		Signer:            signer,
		Clock:             clk.Now,
		CapacityPerSecond: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: a CA's steady precert stream fits comfortably.
	for i := 0; i < 5; i++ {
		var ikh [32]byte
		if _, err := l.AddPreChain(ikh, []byte(fmt.Sprintf("legit-%d", i))); err != nil {
			t.Fatalf("legit submission %d rejected pre-attack: %v", i, err)
		}
		clk.Advance(200 * time.Millisecond)
	}

	// Attack: a flood of distinct, valid final certificates (all public,
	// all unlogged — exactly what anyone can harvest and resubmit).
	var accepted, rejected int
	for i := 0; i < 500; i++ {
		_, err := l.AddChain([]byte(fmt.Sprintf("harvested-final-cert-%d", i)))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond) // 1000/s >> 10/s capacity
	}
	if rejected < 400 {
		t.Fatalf("flood: accepted=%d rejected=%d; capacity limit ineffective", accepted, rejected)
	}

	// Collateral: the legitimate CA now sees rejections too — the
	// availability failure that gets logs disqualified.
	var legitRejected int
	for i := 0; i < 20; i++ {
		var ikh [32]byte
		if _, err := l.AddPreChain(ikh, []byte(fmt.Sprintf("legit-post-%d", i))); errors.Is(err, ErrOverloaded) {
			legitRejected++
		}
		clk.Advance(time.Millisecond)
	}
	if legitRejected == 0 {
		t.Fatal("legitimate traffic unaffected; the attack should cause collateral rejections")
	}

	// After the flood subsides, the token bucket refills and service
	// recovers.
	clk.Advance(5 * time.Second)
	var ikh [32]byte
	if _, err := l.AddPreChain(ikh, []byte("post-recovery")); err != nil {
		t.Fatalf("log did not recover: %v", err)
	}
	if l.rejected == 0 {
		t.Fatal("rejection counter not maintained")
	}
}

// Duplicate suppression blunts naive replay floods: resubmitting the
// same certificate repeatedly costs the log nothing and returns the
// cached SCT, so an attacker must use distinct certificates.
func TestReplayFloodIsFree(t *testing.T) {
	clk := &virtualClock{now: time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)}
	l, err := New(Config{
		Name:              "Replay Target",
		Signer:            sct.NewFastSigner("replay target"),
		Clock:             clk.Now,
		CapacityPerSecond: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cert := []byte("one well-known certificate")
	if _, err := l.AddChain(cert); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := l.AddChain(cert); err != nil {
			t.Fatalf("replay %d rejected: %v (duplicates must bypass the bucket)", i, err)
		}
	}
	if l.Sequence(); l.TreeSize() != 1 {
		t.Fatalf("tree grew to %d under replay", l.TreeSize())
	}
}
