// Package ctrise is a full reproduction, in pure-stdlib Go, of the
// measurement study "The Rise of Certificate Transparency and Its
// Implications on the Internet Ecosystem" (Scheitle et al., IMC 2018).
//
// The repository contains every system the paper runs on: an RFC 6962
// Certificate Transparency log (Merkle tree, SCT issuance, ct/v1 HTTP
// API), a log client and monitor, a CA engine with the paper's four
// misissuance fault modes, a DNS substrate (wire format, authoritative
// UDP server with EDNS Client Subnet, simulated global DNS), a Public
// Suffix List matcher, an AS/routing registry, passive and active TLS
// measurement pipelines, the Section 4 subdomain-enumeration methodology,
// the Section 5 phishing detector, and the Section 6 CT honeypot with a
// calibrated attacker population.
//
// On top of the logs sits a multi-log submission frontend
// (internal/ctfront, served standalone by cmd/ctfront): one endpoint
// that fans add-chain/add-pre-chain submissions out to a pool of
// backend logs — in-process or remote over ct/v1 — until the collected
// SCTs satisfy the Chrome CT policy (internal/policy: minimum count by
// certificate lifetime, operator diversity, one Google and one
// non-Google log). Backend selection is a deterministic, seed-derived
// ranking, and failures (a per-attempt timeout among them) re-plan the
// remaining policy gap onto spares with per-backend exponential backoff.
// The ecosystem timeline optionally drives all issuance through it
// (ecosystem.Config.UseFrontend) with byte-identical per-log trees at
// any parallelism.
//
// The CT log itself is a two-phase stage → sequence pipeline, the shape
// real logs have: AddChain/AddPreChain hash and sign entirely outside
// the log mutex and stage the accepted entry into a pending batch (the
// SCT is the RFC 6962 promise of integration within the MMD), and a
// sequencer integrates batches into the Merkle tree in canonical
// (timestamp, identity-hash) order — inline at virtual-clock boundaries
// for deterministic experiments (ctlog.Log.Sequence/PublishSTH), or on
// a wall-clock ticker for the standalone server
// (ctlog.Log.RunSequencer, used by cmd/ctlogd). Submission throughput
// under contention is bounded by a few map operations, not by hashing
// or signature work (BenchmarkLogAdd measures both architectures).
//
// Logs are optionally durable (ctlog.Open): an append-only, checksummed
// write-ahead log records every accepted submission before its SCT is
// acknowledged, sequencing fsyncs a seal at each batch boundary,
// publication fsyncs the signed head before readers see it, and
// periodic atomic snapshots bound recovery to the WAL tail — so a
// ctlogd killed mid-sequencing restarts (cmd/ctlogd -data-dir, signing
// key persisted alongside) to the identical STH and entries, verified
// by a kill-at-every-byte-offset crash harness. A crawl over HTTP has
// one resume path: the auditor's verified-STH chain rides the same record
// codec and records each log's entry cursor, and a restarted ctmon
// resumes there gap-free (ctclient.NewMonitorAt).
//
// The harvest-and-analysis data plane is concurrent and sharded: logs
// expose a lock-free streaming iterator over the immutable prefix below
// the published STH (ctlog.Log.StreamEntries), the harvester fans
// entry-range chunks of every log out to a bounded worker pool that
// builds private partial aggregates over a sharded FQDN-dedup set, and
// the Section 4 census, candidate construction, and massdns-style
// verification all split their inputs into chunks the same way. The
// harvester hands that sharded set to the census zero-copy
// (subenum.RunCensusSet): census workers consume the dedup shards in
// place instead of materializing the corpus into an intermediate map.
// Over HTTP, ctclient.Monitor.StreamEntries mirrors the same bulk
// semantics for remote logs: gap-free pages with a per-request entry
// cap, partial pages (the server clamps oversized ranges to its page
// limit, like production logs) resumed from the first undelivered
// index, and cancellation checked between entries so a canceled harvest
// stops mid-page.
//
// The generation side runs on the same deterministic fan-out layer
// (internal/ecosystem/partition.go). Work is chunked by index ranges
// whose boundaries depend only on input size; every chunk derives a
// private RNG from the base seed and the chunk's identity by
// seed-splitting (splitmix64 over the seed and salts such as day index,
// CA name, or site index — ecosystem.DeriveSeed/NewRand), so a chunk's
// draws never depend on which worker runs it or when. Three pipelines
// are built on it: the Figure 2 traffic replay (tlsmon.Generate)
// generates day chunks into recycled buffers and emits them through an
// ordered merge on the calling goroutine; the issuance timeline
// (ecosystem.World.RunTimeline) runs as a two-stage pipeline — a
// lookahead goroutine plans day d+1's draws and constructs its
// certificates (serial blocks reserved per CA, issuance time passed
// explicitly) while day d's submissions stage into the logs from all
// workers at once, and one deterministic sequence+publish step per log
// closes the day, the sequencer's canonical batch order making every
// log's Merkle tree independent of the staging interleaving (the Nimbus
// overload and final-certificate logging use the coupled commit, each
// issuance's full CA flow in (CA, plan) order on one worker); and the
// Section 3.3 scan (scanner.BuildPopulation, ScanParallel and
// DetectInvalidSCTsParallel) chunks sites over workers — serials from
// per-CA blocks — with private statistics partials merged additively.
//
// One knob — Parallelism, on ecosystem.Config, experiments.Options,
// tlsmon.GenConfig, scanner.PopConfig, and the subenum configs — bounds
// every fan-out (GOMAXPROCS by default, 1 runs every stage inline on the
// calling goroutine);
// every pipeline merges its partials deterministically, so output is
// identical at any setting (the equivalence tests in
// parallel_replay_test.go and parallel_equivalence_test.go assert this
// at parallelism 1, 4, and 13).
//
// Every table and figure of the paper is regenerated by a benchmark in
// bench_test.go and rendered by cmd/ctrise. See README.md for the
// quickstart and the experiment-to-package map, and ARCHITECTURE.md for
// the log's stage → sequence → persist → publish lifecycle, the
// WAL/snapshot crash-consistency contract, and where the submission
// frontend sits.
package ctrise
