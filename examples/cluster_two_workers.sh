#!/usr/bin/env bash
# Two-worker cluster walkthrough with a live migration drill.
#
# Starts two `repro worker` processes on ephemeral localhost ports, routes a
# cluster-backed server at them, drives a handful of sessions, drains one
# worker mid-stream with the `migrate` op, kills the drained worker, and
# finishes every session — zero dropped streams.
#
# Run from the repo root:
#   bash examples/cluster_two_workers.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORKDIR="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

ENGINE_FLAGS=(--rows 6 --cols 6 --horizon 10)

# 1. Two workers on ephemeral ports. Each announces a JSON line with the
#    bound port once it is listening.
python -m repro.cli worker --listen 127.0.0.1:0 "${ENGINE_FLAGS[@]}" \
  > "$WORKDIR/w1.jsonl" &
W1_PID=$!
python -m repro.cli worker --listen 127.0.0.1:0 "${ENGINE_FLAGS[@]}" \
  > "$WORKDIR/w2.jsonl" &
W2_PID=$!

for f in w1 w2; do
  for _ in $(seq 1 50); do
    grep -q '"op": "worker"' "$WORKDIR/$f.jsonl" 2>/dev/null && break
    sleep 0.2
  done
done

W1_ADDR="tcp://$(python - "$WORKDIR/w1.jsonl" <<'EOF'
import json, sys
line = json.loads(open(sys.argv[1]).readline())
print(f"{line['host']}:{line['port']}")
EOF
)"
W2_ADDR="tcp://$(python - "$WORKDIR/w2.jsonl" <<'EOF'
import json, sys
line = json.loads(open(sys.argv[1]).readline())
print(f"{line['host']}:{line['port']}")
EOF
)"
echo "workers: $W1_ADDR $W2_ADDR"

# 2. A cluster-backed server routing at both workers.
python -m repro.cli serve --port 0 "${ENGINE_FLAGS[@]}" \
  --backend "$W1_ADDR,$W2_ADDR" \
  > "$WORKDIR/serve.jsonl" &
SERVE_PID=$!

for _ in $(seq 1 50); do
  grep -q '"op": "serving"' "$WORKDIR/serve.jsonl" 2>/dev/null && break
  sleep 0.2
done
PORT="$(python - "$WORKDIR/serve.jsonl" <<'EOF'
import json, sys
print(json.loads(open(sys.argv[1]).readline())["port"])
EOF
)"
echo "server: 127.0.0.1:$PORT"

# 3. Drive sessions, drain worker 1 mid-stream, kill it, and finish.
PORT="$PORT" W1_ADDR="$W1_ADDR" W1_PID="$W1_PID" python - <<'EOF'
import os
import signal
import time

from repro.service.client import ServiceClient

port = int(os.environ["PORT"])
w1_addr = os.environ["W1_ADDR"]
w1_pid = int(os.environ["W1_PID"])

with ServiceClient("127.0.0.1", port) as client:
    stats = client.stats()
    assert stats["server"]["shards"] == 2, stats["server"]
    assert stats["shards"]["alive"] == 2, stats["shards"]

    sessions = [f"drill-{i}" for i in range(16)]
    for sid in sessions:
        client.open(sid)
    for t in range(3):
        for i, sid in enumerate(sessions):
            client.step(sid, cell=(5 * t + i) % 36)

    summary = client.migrate(w1_addr)
    print("drained:", summary)
    assert summary["worker"] == w1_addr
    assert summary["migrated"] >= 1, summary

    os.kill(w1_pid, signal.SIGTERM)
    time.sleep(0.5)

    # Every stream keeps serving after its old home is gone.
    for t in range(3, 6):
        for i, sid in enumerate(sessions):
            client.step(sid, cell=(5 * t + i) % 36)
    for sid in sessions:
        out = client.finish(sid)
        assert out["n_released"] == 6, out
    print(f"finished {len(sessions)} sessions, zero dropped streams")
EOF

# 4. Clean drain: SIGINT the server and confirm nothing was lost.
kill -INT "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
python - "$WORKDIR/serve.jsonl" <<'EOF'
import json, sys
drained = [json.loads(l) for l in open(sys.argv[1]) if '"drained"' in l][-1]
assert drained["sessions_lost"] == 0, drained
print("drained cleanly:", drained)
EOF

echo "OK"
