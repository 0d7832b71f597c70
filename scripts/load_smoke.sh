#!/usr/bin/env bash
# Load harness smoke over real sockets: two durable ctlogd backends, a
# ctfront fanning add-chain out over both, and ctload driving the full
# mixed workload against backend A (reads) + the frontend (writes).
#
# Asserts that every workload class completed requests with zero
# harness-level failures — once under the default mix and once under a
# proof-heavy mix that hammers the lock-free proof snapshot — and that
# the committed BENCH_load.json is well-formed (schema, per-class
# quantiles, the reader-starvation run during a whole-batch integration,
# and its idle baseline). Run from the repository root:
#
#	./scripts/load_smoke.sh
set -euo pipefail

BIN=$(mktemp -d)
DATA=$(mktemp -d)
cleanup() {
	# shellcheck disable=SC2046
	kill $(jobs -p) 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "$BIN" "$DATA"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/ctlogd ./cmd/ctfront ./cmd/ctload

A=127.0.0.1:18801
B=127.0.0.1:18802
FRONT=127.0.0.1:18800

"$BIN/ctlogd" -addr "$A" -name "smoke-a" -operator "Google" \
	-data-dir "$DATA/a" -sequence 200ms &
"$BIN/ctlogd" -addr "$B" -name "smoke-b" -operator "Beta" \
	-data-dir "$DATA/b" -sequence 200ms &

wait_http() {
	for _ in $(seq 1 100); do
		if curl -fsS -o /dev/null "$1"; then
			return 0
		fi
		sleep 0.1
	done
	echo "timeout waiting for $1" >&2
	return 1
}
wait_http "http://$A/ct/v1/get-sth"
wait_http "http://$B/ct/v1/get-sth"

# The backends persisted their signing keys on startup; the frontend
# verifies every SCT against them (keyfile keyspec).
"$BIN/ctfront" -addr "$FRONT" \
	-backend "smoke-a,Google,http://$A,keyfile:$DATA/a/key.der,google" \
	-backend "smoke-b,Beta,http://$B,keyfile:$DATA/b/key.der" &
wait_http "http://$FRONT/ctfront/v1/health"

OUT="$DATA/load_smoke.json"
"$BIN/ctload" -target "http://$A" -front "http://$FRONT" \
	-conns 8 -duration 3s -warmup 32 -json "$OUT"

python3 - "$OUT" <<'EOF'
import json, sys

res = json.load(open(sys.argv[1]))
assert res["schema"] == "ctrise/ctload/v1", res["schema"]
classes = res["classes"]
for cls in ("add-chain", "get-sth", "get-entries", "get-proof"):
    c = classes[cls]
    assert c["requests"] > 0, f"{cls}: zero completed requests"
    assert c["errors"] == 0, f"{cls}: {c['errors']} errors"
    assert c["latency"]["p99_ms"] > 0, f"{cls}: empty latency histogram"
print("ctload smoke: %d requests, %d errors, %.0f rps across %d classes"
      % (res["requests"], res["errors"], res["throughput_rps"], len(classes)))
EOF

# Proof-heavy mix: most requests are get-proof-by-hash/get-sth-consistency
# against the published-snapshot proof path, with a write trickle so the
# sequencer keeps publishing new heads underneath the readers. Any proof
# error here (wrong status, starved request) fails the smoke.
PROOF_OUT="$DATA/load_smoke_proof.json"
"$BIN/ctload" -target "http://$A" -front "http://$FRONT" \
	-conns 8 -duration 3s -warmup 32 -mix "add=1,sth=1,entries=1,proof=8" \
	-json "$PROOF_OUT"

python3 - "$PROOF_OUT" <<'EOF'
import json, sys

res = json.load(open(sys.argv[1]))
proof = res["classes"]["get-proof"]
assert proof["requests"] > 0, "proof-heavy mix completed zero proof requests"
assert proof["errors"] == 0, f"proof-heavy mix: {proof['errors']} proof errors"
for cls, c in res["classes"].items():
    assert c["errors"] == 0, f"proof-heavy mix {cls}: {c['errors']} errors"
print("proof-heavy smoke: %d proof requests, zero errors, proof p99 %.1fms"
      % (proof["requests"], proof["latency"]["p99_ms"]))
EOF

python3 - <<'EOF'
import json

bench = json.load(open("BENCH_load.json"))
assert bench["schema"] == "ctrise/bench-load/v1", bench["schema"]
assert "regenerate_with" in bench
s = bench["reader_starvation"]
assert s["integrate_ms"] > 0
for group in ("classes", "idle_classes"):
    for cls, c in s[group].items():
        assert c["requests"] > 0, f"{group}/{cls}: zero requests"
        assert c["latency"]["p99_ms"] > 0, f"{group}/{cls}: empty histogram"
for cls, c in bench["workload"]["classes"].items():
    assert c["requests"] > 0, f"workload/{cls}: zero requests"
print("BENCH_load.json well-formed: %.0fms integration, proof p99 %.1fms during vs %.1fms idle"
      % (s["integrate_ms"], s["classes"]["get-proof"]["latency"]["p99_ms"],
         s["idle_classes"]["get-proof"]["latency"]["p99_ms"]))
EOF
