package main

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ctrise/internal/ctclient"
	"ctrise/internal/ctfront"
	"ctrise/internal/ctlog"
	"ctrise/internal/merkle"
	"ctrise/internal/metrics"
	"ctrise/internal/sct"
)

// TestParseBackend pins the -backend syntax: three positional fields,
// then "google" and a KEYSPEC recognized by content in either order,
// with the KEYSPEC mandatory.
func TestParseBackend(t *testing.T) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sec1, err := x509.MarshalECPrivateKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	pkix, err := x509.MarshalPKIXPublicKey(&priv.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	keyFile := filepath.Join(t.TempDir(), "key.der")
	if err := os.WriteFile(keyFile, sec1, 0o600); err != nil {
		t.Fatal(err)
	}
	keyID := sct.KeyID(&priv.PublicKey)
	fastID := sct.NewFastVerifier("log-a").LogID()

	for _, row := range []struct {
		v      string
		name   string // subtest name when v holds a generated key or path; "" = v
		google bool
		logID  *sct.LogID // nil = no verifier ("none")
		want   string     // "" = accepted; otherwise a substring of the error
	}{
		{v: "log-a,OpA,http://a,fast,google", google: true, logID: &fastID},
		{v: "log-a,OpA,http://a,google,fast", google: true, logID: &fastID},
		{v: "log-a,OpA,http://a,none"},
		{v: "log-a,OpA,http://a,fast", logID: &fastID},
		{v: "log-a,OpA,http://a,pubkey:" + base64.StdEncoding.EncodeToString(pkix), name: "log-a,OpA,http://a,pubkey:SPKI", logID: &keyID},
		{v: "log-a, OpA ,http://a,keyfile:" + keyFile + ",google", name: "log-a, OpA ,http://a,keyfile:KEYFILE,google", google: true, logID: &keyID},
		{v: "log-a,OpA,http://a,google,fast,google", want: `want name,operator,url,KEYSPEC[,google]`},
		{v: "log-a,OpA,http://a,google,google", want: `duplicate "google"`},
		{v: "log-a,OpA,http://a,fast,none", want: "duplicate KEYSPEC"},
		{v: "log-a,OpA,http://a,google", want: `missing KEYSPEC in "log-a,OpA,http://a,google" (use "none"`},
		{v: "log-a,OpA,http://a,goggle", want: `field "goggle" in "log-a,OpA,http://a,goggle" is neither "google" nor a KEYSPEC`},
		{v: "log-a,OpA,http://a", want: `want name,operator,url,KEYSPEC[,google], got "log-a,OpA,http://a"`},
		{v: ",OpA,http://a,fast", want: "empty field"},
		{v: "log-a, ,http://a,fast", want: "empty field"},
		{v: "log-a,OpA,,fast", want: "empty field"},
	} {
		name := row.name
		if name == "" {
			name = row.v
		}
		t.Run(name, func(t *testing.T) {
			spec, err := parseBackend(row.v)
			if row.want != "" {
				if err == nil || !strings.Contains(err.Error(), row.want) {
					t.Fatalf("err=%v, want one containing %q", err, row.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if spec.Backend.Name() != "log-a" || spec.Operator != "OpA" || spec.GoogleOperated != row.google {
				t.Fatalf("got name %q operator %q google %v", spec.Backend.Name(), spec.Operator, spec.GoogleOperated)
			}
			switch {
			case row.logID == nil && spec.Verifier != nil:
				t.Fatalf("verifier %T for \"none\"", spec.Verifier)
			case row.logID != nil && spec.Verifier == nil:
				t.Fatal("no verifier")
			case row.logID != nil && spec.Verifier.LogID() != *row.logID:
				t.Fatalf("verifier log id %s, want %s", spec.Verifier.LogID(), *row.logID)
			}
		})
	}
}

// TestDeploymentTwoLogsBehindFront runs the built binaries the way an
// operator deploys them: two durable ctlogds, one Google-operated, and a
// ctfront verifying each backend's SCTs under the key.der the backend
// wrote, talking over loopback sockets. Every bundle must carry a valid
// SCT from each log; once each log's signed head covers the acked
// certificates, every one must be provably included in both logs and
// served by get-entries exactly once; SIGTERM must drain all three
// processes to exit status 0.
func TestDeploymentTwoLogsBehindFront(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "ctrise/cmd/ctlogd", "ctrise/cmd/ctfront")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ctlogd and ctfront: %v\n%s", err, out)
	}

	type backendLog struct {
		name, operator string
		google         bool
		proc           *daemon
	}
	logs := []*backendLog{
		{name: "deploy-google", operator: "Google", google: true},
		{name: "deploy-beta", operator: "Beta"},
	}
	verifiers := make(map[string]sct.SCTVerifier)
	var backendFlags []string
	for _, l := range logs {
		dir := filepath.Join(t.TempDir(), l.name)
		l.proc = startDaemon(t, filepath.Join(bin, "ctlogd"), "/ct/v1/get-sth",
			"-name", l.name, "-operator", l.operator, "-data-dir", dir, "-sequence", "200ms")
		// The key exists once get-sth answers: ctlogd persists it before
		// it listens.
		keySpec := "keyfile:" + filepath.Join(dir, "key.der")
		v, err := sct.ParseKeySpec(l.name, keySpec)
		if err != nil {
			t.Fatal(err)
		}
		verifiers[l.name] = v
		spec := fmt.Sprintf("%s,%s,%s,%s", l.name, l.operator, l.proc.base, keySpec)
		if l.google {
			spec += ",google"
		}
		backendFlags = append(backendFlags, "-backend", spec)
	}
	front := startDaemon(t, filepath.Join(bin, "ctfront"), "/ctfront/v1/health", backendFlags...)

	const (
		certs   = 64
		workers = 4
	)
	cert := func(i int) []byte { return []byte(fmt.Sprintf("deployment test certificate %03d", i)) }
	// timestamps[i] maps a log name to its SCT timestamp for cert i; each
	// worker writes only its own rows.
	timestamps := make([]map[string]uint64, certs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < certs; i += workers {
				ts, err := submitBundle(front.base, cert(i), verifiers)
				if err != nil {
					t.Errorf("cert %d: %v", i, err)
					continue
				}
				timestamps[i] = ts
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	ctx := context.Background()
	for _, l := range logs {
		client := ctclient.New(l.proc.base, verifiers[l.name])
		// The only submissions are ours, deduplicated by the log, so the
		// head must reach exactly certs entries.
		var sth ctlog.SignedTreeHead
		deadline := time.Now().Add(10 * time.Second)
		for {
			var err error
			if sth, err = client.GetSTH(ctx); err != nil {
				t.Fatalf("%s: get-sth: %v", l.name, err)
			}
			if sth.TreeHead.TreeSize >= certs || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		size := sth.TreeHead.TreeSize
		if size != certs {
			t.Fatalf("%s: signed head covers %d entries, want %d", l.name, size, certs)
		}

		served := make(map[merkle.Hash][]uint64, certs)
		for start := uint64(0); start < size; {
			page, err := client.GetEntries(ctx, start, size-1)
			if err != nil {
				t.Fatalf("%s: get-entries from %d: %v", l.name, start, err)
			}
			if len(page) == 0 {
				t.Fatalf("%s: empty get-entries page at %d", l.name, start)
			}
			for _, e := range page {
				h, err := e.LeafHash()
				if err != nil {
					t.Fatal(err)
				}
				served[h] = append(served[h], e.Index)
			}
			start += uint64(len(page))
		}

		for i := 0; i < certs; i++ {
			entry := &ctlog.Entry{Timestamp: timestamps[i][l.name], Type: sct.X509LogEntryType, Cert: cert(i)}
			leaf, err := entry.LeafHash()
			if err != nil {
				t.Fatal(err)
			}
			index, path, err := client.GetProofByHash(ctx, leaf, size)
			if err != nil {
				t.Fatalf("%s: get-proof-by-hash for cert %d: %v", l.name, i, err)
			}
			if err := merkle.VerifyInclusion(leaf, index, size, path, merkle.Hash(sth.TreeHead.RootHash)); err != nil {
				t.Fatalf("%s: cert %d at index %d: %v", l.name, i, index, err)
			}
			if got := served[leaf]; len(got) != 1 || got[0] != index {
				t.Fatalf("%s: get-entries serves cert %d at indexes %v, want exactly [%d]", l.name, i, got, index)
			}
		}

		// The log's own scrape agrees: everything acked is published,
		// nothing is left staged, and the store is healthy.
		scrape := scrapeMetrics(t, l.proc.base)
		for _, line := range []string{
			fmt.Sprintf("ctlog_sth_tree_size %d", certs),
			"ctlog_staged_entries 0",
			"ctlog_store_failed 0",
		} {
			if !strings.Contains(scrape, "\n"+line+"\n") {
				t.Fatalf("%s: /metrics lacks %q:\n%s", l.name, line, scrape)
			}
		}
	}

	front.stop(t)
	for _, l := range logs {
		l.proc.stop(t)
	}
}

// scrapeMetrics fetches base's GET /metrics and returns the body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != metrics.ContentType {
		t.Fatalf("GET %s/metrics: %s, Content-Type %q\n%s", base, resp.Status, resp.Header.Get("Content-Type"), body)
	}
	return string(body)
}

// submitBundle posts cert to the frontend's add-chain and checks the
// bundle: one SCT from each log in verifiers, each verifying under that
// log's key, so the bundle holds the Google and the non-Google SCT. It
// returns each log's SCT timestamp by log name.
func submitBundle(base string, cert []byte, verifiers map[string]sct.SCTVerifier) (map[string]uint64, error) {
	body, err := json.Marshal(ctlog.AddChainRequest{Chain: []string{base64.StdEncoding.EncodeToString(cert)}})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/ctfront/v1/add-chain", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("add-chain: HTTP %d", resp.StatusCode)
	}
	var bundle ctfront.AddChainResponse
	if err := json.NewDecoder(resp.Body).Decode(&bundle); err != nil {
		return nil, fmt.Errorf("add-chain body: %v", err)
	}
	if len(bundle.SCTs) != len(verifiers) {
		return nil, fmt.Errorf("bundle holds %d SCTs, want %d", len(bundle.SCTs), len(verifiers))
	}
	timestamps := make(map[string]uint64, len(verifiers))
	for _, b := range bundle.SCTs {
		v, known := verifiers[b.LogName]
		if _, repeated := timestamps[b.LogName]; !known || repeated {
			return nil, fmt.Errorf("bundle SCT from unknown or repeated log %q", b.LogName)
		}
		s, err := parseSCT(b.AddChainResponse)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", b.LogName, err)
		}
		if err := v.VerifySCT(s, sct.X509Entry(cert)); err != nil {
			return nil, fmt.Errorf("%s SCT: %v", b.LogName, err)
		}
		timestamps[b.LogName] = s.Timestamp
	}
	return timestamps, nil
}

// parseSCT decodes the ct/v1 add-chain fields of a bundle SCT.
func parseSCT(r ctlog.AddChainResponse) (*sct.SignedCertificateTimestamp, error) {
	id, err1 := base64.StdEncoding.DecodeString(r.ID)
	ext, err2 := base64.StdEncoding.DecodeString(r.Extensions)
	raw, err3 := base64.StdEncoding.DecodeString(r.Signature)
	if err1 != nil || err2 != nil || err3 != nil || len(id) != sct.LogIDSize {
		return nil, fmt.Errorf("SCT fields are not base64")
	}
	sig, err := sct.ParseDigitallySigned(raw)
	if err != nil {
		return nil, err
	}
	return &sct.SignedCertificateTimestamp{
		SCTVersion: sct.Version(r.SCTVersion),
		LogID:      sct.LogID(id),
		Timestamp:  r.Timestamp,
		Extensions: ext,
		Signature:  sig,
	}, nil
}

// daemon is one running binary, listening on base.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr string        // path of the file its stderr goes to
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
}

// startDaemon runs bin with args plus -addr on a free loopback port and
// returns once GET readyPath answers 200. The process is killed at the
// end of the test unless stop has already ended it.
func startDaemon(t *testing.T, bin, readyPath string, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	stderr, err := os.CreateTemp(t.TempDir(), filepath.Base(bin)+"-*.stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	d := &daemon{
		cmd:    exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		base:   "http://" + addr,
		stderr: stderr.Name(),
		done:   make(chan struct{}),
	}
	d.cmd.Stderr = stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			d.cmd.Process.Kill()
			<-d.done
		}
	})

	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := hc.Get(d.base + readyPath); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case <-d.done:
			t.Fatalf("%s exited before answering %s: %v\n%s", bin, readyPath, d.err, d.stderrTail())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered %s\n%s", bin, readyPath, d.stderrTail())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean exit within the drain bounds.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: %v", d.cmd.Path, err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after SIGTERM\n%s", d.cmd.Path, d.stderrTail())
	}
	if d.err != nil {
		t.Fatalf("%s exited with %v after SIGTERM\n%s", d.cmd.Path, d.err, d.stderrTail())
	}
}

func (d *daemon) stderrTail() string {
	out, _ := os.ReadFile(d.stderr)
	if len(out) > 4096 {
		out = out[len(out)-4096:]
	}
	return string(out)
}
