#!/usr/bin/env bash
# Bounded chaos-soak CI leg for the intra-epoch recovery layer.
#
# Runs the seeded multi-fault scenario battery (bench/chaos_soak.cc) at a
# small dataset scale so the whole battery fits a CI budget (~60s): every
# scenario — mid-epoch kills against each recovery rung, a kill during an
# in-flight recovery, repeated kills, drop/delay/disconnect/corruption
# storms, checkpoint faults, and the coordinator crash domain (coordinator
# crash mid-epoch with successor takeover from the write-ahead cluster
# journal, crash during an in-flight worker recovery, coordinator+worker
# double kill, and a corrupted journal degrading to the checkpoint-fallback
# rung) — must end bitwise-identical to the clean run.
# The recovery-latency <50% assertion is also enabled: the coordinator's
# death-to-resume stall must stay under half of what the epoch-restart
# ladder pays to rerun the epoch, the successor's adopted epoch must
# finish below a full epoch-0 rerun, and the two double faults (a kill
# during a recovery, a coordinator and a worker killed together) must each
# finish inside one RPC deadline.
#
# Usage: ci/chaos_soak.sh <chaos_soak binary> [scale] [report.json]

set -euo pipefail

BIN="${1:?usage: ci/chaos_soak.sh <chaos_soak binary> [scale] [report.json]}"
SCALE="${2:-0.04}"
REPORT="${3:-BENCH_chaos_ci.json}"

echo "== chaos soak (scale ${SCALE}, report ${REPORT}) =="
"${BIN}" --scale="${SCALE}" --report="${REPORT}" --assert-recovery-ratio

echo "== chaos soak OK =="
