package ecosystem

import (
	"path/filepath"

	"ctrise/internal/ctfront"
	"ctrise/internal/ctlog"
	"ctrise/internal/ctlog/storage"
	"ctrise/internal/sct"
)

// Log names, matching Table 1 of the paper. Constants avoid typos in the
// CA policies and experiment assertions.
const (
	LogGooglePilot     = "Google Pilot log"
	LogSymantec        = "Symantec log"
	LogGoogleRocketeer = "Google Rocketeer log"
	LogDigiCert        = "DigiCert Log Server"
	LogGoogleSkydiver  = "Google Skydiver log"
	LogGoogleAviator   = "Google Aviator log"
	LogVenafi          = "Venafi log"
	LogDigiCert2       = "DigiCert Log Server 2"
	LogSymantecVega    = "Symantec Vega log"
	LogComodoMammoth   = "Comodo Mammoth CT log"
	LogNimbus2018      = "Cloudflare Nimbus2018 Log"
	LogGoogleIcarus    = "Google Icarus log"
	LogNimbus2020      = "Cloudflare Nimbus2020 Log"
	LogComodoSabre     = "Comodo Sabre CT log"
	LogCertlyIO        = "Certly.IO log"
)

// logSpec describes one named log.
type logSpec struct {
	name     string
	operator string
}

// logSpecs lists the Table 1 logs and their operators.
var logSpecs = []logSpec{
	{LogGooglePilot, "Google"},
	{LogSymantec, "Symantec"},
	{LogGoogleRocketeer, "Google"},
	{LogDigiCert, "DigiCert"},
	{LogGoogleSkydiver, "Google"},
	{LogGoogleAviator, "Google"},
	{LogVenafi, "Venafi"},
	{LogDigiCert2, "DigiCert"},
	{LogSymantecVega, "Symantec"},
	{LogComodoMammoth, "Comodo"},
	{LogNimbus2018, "Cloudflare"},
	{LogGoogleIcarus, "Google"},
	{LogNimbus2020, "Cloudflare"},
	{LogComodoSabre, "Comodo"},
	{LogCertlyIO, "Certly"},
}

// buildLogs instantiates the named logs on the shared clock. Logs use the
// simulation fast signer; nimbusCapacity, if positive, rate-limits the
// Nimbus2018 log so the overload incident of Section 2 can be reproduced.
// A non-empty dataDir makes every log durable in its own subdirectory
// (resuming from existing state on reopen), with WAL fsyncs batched at
// the sequencing barriers — the replay's natural durability unit.
func buildLogs(clock *Clock, nimbusCapacity float64, dataDir string, tileSpan int) (map[string]*ctlog.Log, error) {
	out := make(map[string]*ctlog.Log, len(logSpecs))
	for _, spec := range logSpecs {
		cfg := ctlog.Config{
			Name:          spec.name,
			Operator:      spec.operator,
			Signer:        sct.NewFastSigner(spec.name),
			Clock:         clock.Now,
			MaxGetEntries: 1000,
		}
		if spec.name == LogNimbus2018 && nimbusCapacity > 0 {
			cfg.CapacityPerSecond = nimbusCapacity
		}
		var (
			l   *ctlog.Log
			err error
		)
		if dataDir != "" {
			cfg.Sync = ctlog.SyncAtSequence
			cfg.TileSpan = tileSpan
			l, err = ctlog.Open(filepath.Join(dataDir, storage.SafeName(spec.name)), cfg)
		} else {
			l, err = ctlog.New(cfg)
		}
		if err != nil {
			return nil, err
		}
		out[spec.name] = l
	}
	return out, nil
}

// buildFrontend assembles the multi-log submission frontend over every
// world log, in Table 1 order, with the policy metadata the Chrome
// rules need (operator, Google-operated). The frontend shares the
// world's seed (deterministic routing) and virtual clock (backoff
// bookkeeping runs on replay time), and — because the frontend verifies
// a LocalLog under its wrapped log's own key — every SCT entering a
// replay bundle is signature-verified. Load-aware routing is on; weights
// commit at the end-of-day barrier (finishDay), so they too are
// replay-deterministic.
func buildFrontend(w *World) (*ctfront.Frontend, error) {
	specs := make([]ctfront.BackendSpec, 0, len(w.LogNames))
	for _, name := range w.LogNames {
		l := w.Logs[name]
		specs = append(specs, ctfront.BackendSpec{
			Backend:        ctfront.LocalLog{Log: l},
			Operator:       l.Operator(),
			GoogleOperated: l.Operator() == "Google",
		})
	}
	return ctfront.New(ctfront.Config{
		Backends: specs,
		Seed:     w.Cfg.Seed,
		Clock:    w.Clock.Now,
	})
}

// Close closes every log, flushing final snapshots on durable worlds.
// In-memory worlds close trivially. The first error wins; all logs are
// closed regardless.
func (w *World) Close() error {
	var firstErr error
	for _, name := range w.LogNames {
		if err := w.Logs[name].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
