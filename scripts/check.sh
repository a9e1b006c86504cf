#!/usr/bin/env bash
# The gate, written once. Every leg is a function; with no argument all
# of them run, in the order of `legs` below — formatting, lints and the
# whole test suite first — and `./scripts/check.sh model-check chaos`
# runs the named ones. CI's jobs are these legs
# (.github/workflows/ci.yml calls this script and nothing else), so a
# green ./scripts/check.sh means a green pipeline.
#
# `./scripts/check.sh lines <paths…>` is not a leg: it prints the figure a
# simplicity PR's line budget is stated in — the lines of each file above
# its first `#[cfg(test)]`, summed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = lines ]; then
  shift
  for path in "$@"; do
    awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$path"
  done | awk '{n += $1} END{print n+0}'
  exit
fi

legs=(lint test model-check chaos experiments micro-bench benchmark-package procher)

leg_lint() {
  echo "==> cargo fmt --check"
  cargo fmt --all --check

  echo "==> cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> shims (every stand-in is somebody's dependency; every feature compiles)"
  # A vendored stand-in nobody depends on, or a cargo feature no build
  # enables, rots unseen: `shims/serde` sat behind a `serde` feature that
  # did not compile until PR 17 deleted both. The workspace table in the
  # root manifest only declares a shim; a user names it in a dependency
  # table of its own (`x.workspace = true`, or a `../shims/x` path).
  for dir in shims/*/; do
    shim=$(basename "$dir")
    if ! grep -qE "^$shim(\.workspace *= *true| *= *\{[^}]*(workspace *= *true|path *= *\"\.\./))" \
      Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml benchmark/Cargo.toml; then
      echo "shims/$shim is not a dependency of any manifest" >&2
      exit 1
    fi
  done
  cargo check --workspace --all-features --offline --quiet

  echo "==> layering (the application crates do not link the simulator)"
  # dlm, data and vip are hosted wherever a SessionNode runs (DESIGN.md
  # §18): the simulator is one host, and may be a dev-dependency of theirs
  # only. The seeded manifest — crates/vip's before PR 21 — must trip the
  # same check, or the check checks nothing.
  links_simulator() {
    awk '/^\[/ { deps = ($0 == "[dependencies]"); if ($0 == "[dependencies.raincore-sim]") hit = 1 }
         deps && /^raincore-sim[ .=]/ { hit = 1 }
         END { exit !hit }' "$1"
  }
  if ! links_simulator scripts/layering-fixture.toml; then
    echo "the layering check accepted the seeded manifest" >&2
    exit 1
  fi
  for crate in dlm data vip; do
    if links_simulator "crates/$crate/Cargo.toml"; then
      echo "crates/$crate names raincore-sim under [dependencies]" >&2
      exit 1
    fi
  done

  echo "==> clippy (seeded fixture must fail on every protocol rule family)"
  # The protocol rules are clippy lints (DESIGN.md §6b), so the clippy leg
  # above is the lint leg. This one is its non-vacuity gate: a crate
  # outside the workspace with one unwrap, one Instant and one wildcard arm
  # must be rejected for all three.
  if fixture=$(CARGO_TARGET_DIR=target/lint-fixture cargo clippy --quiet \
    --manifest-path scripts/lint-fixture/Cargo.toml -- -D warnings 2>&1); then
    echo "clippy accepted the seeded fixture crate" >&2
    exit 1
  fi
  for lint in unwrap_used disallowed_types wildcard_enum_match_arm; do
    if ! grep -q "#$lint" <<<"$fixture"; then
      echo "clippy did not flag $lint in the seeded fixture crate" >&2
      exit 1
    fi
  done
}

leg_test() {
  echo "==> cargo test"
  cargo test --workspace --quiet
}

leg_model_check() {
  echo "==> model check (seeded two-token fault must be found)"
  cargo run --release -q -p raincore-sim --bin model_check -- --seeded-check

  echo "==> model check (bounded exploration must be clean)"
  # The canonical state cache collapses the 3-node space: it now exhausts
  # at ~3.3k schedules (previously >10k explored the same states many
  # times over), so the floor guards against *accidentally* tightened
  # bounds, not against the cache doing its job.
  cargo run --release -q -p raincore-sim --bin model_check -- --min-schedules 3000

  echo "==> model check (5-node seeded fault found inside the state budget)"
  cargo run --release -q -p raincore-sim --bin model_check -- \
    --nodes 5 --seeded-check --max-schedules 40000 \
    --stats-out model-check-5node-stats.json

  echo "==> model check (state cache makes the 4-node search >2x smaller)"
  cargo run --release -q -p raincore-sim --bin model_check -- \
    --nodes 4 --depth 10 --max-schedules 2000000 \
    --stats-out model-check-4node-reduced.json
  cargo run --release -q -p raincore-sim --bin model_check -- \
    --nodes 4 --depth 10 --max-schedules 2000000 --no-reduction \
    --stats-out model-check-4node-unreduced.json
  reduced=$(sed -n 's/.*"states": \([0-9]*\).*/\1/p' model-check-4node-reduced.json)
  unreduced=$(sed -n 's/.*"states": \([0-9]*\).*/\1/p' model-check-4node-unreduced.json)
  echo "    states: unreduced=$unreduced reduced=$reduced" | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
  if [ "$unreduced" -lt $((2 * reduced)) ]; then
    echo "state cache under 2x at 4 nodes ($unreduced vs $reduced states)" >&2
    exit 1
  fi

  echo "==> model check (early-pass space: 64-byte MTU, exhausts clean with and without the cache)"
  # The pacing rule (DESIGN.md §16) never fires at the default MTU with a
  # handful of seeded messages, so this leg shrinks the datagram: the line
  # is 120 bytes, node 0's pass is paced, node 1's is released by what it
  # has queued, node 2's by the size of the token it accepts, and the token
  # travels as two or three fragments the adversary reorders, drops and
  # cuts short by a crash. Either search mode finding a violation fails the
  # leg (the two violation sets must both be empty), as does a capped
  # search or one that never passed a token early.
  for mode in "" --no-reduction; do
    out=$(cargo run --release -q -p raincore-sim --bin model_check -- \
      --mtu 64 --multicast 0:30 --multicast 0:30 --multicast 1:30 \
      --depth 12 --max-schedules 2000000 --min-early-passes 2 $mode)
    echo "$out"
    grep -q '\[exhausted\]' <<<"$out"
  done

  echo "==> model check (freight space: one out-of-band payload fills a 30-byte token, exhausts clean with and without the cache)"
  # The leg above fills the token with what rides it. Here node 1's one
  # seeded multicast is 120 bytes against a 100-byte bulk threshold and a
  # 120-byte line: the payload travels beside the token as three-fragment
  # bulk frames, is a full token's worth by itself, and the token that
  # orders it is full by that freight alone (DESIGN.md §16.1) —
  # released by what is queued at node 1, by the manifest entry it accepts
  # at node 2. The adversary may also lose one bulk payload outright
  # (--bulk-drops 1), so the NACK pull runs under an early-passed token and
  # the delivery-completeness auditor watches it. Fails like the leg above,
  # and on any tree that weighs the manifest instead of the payload, as
  # this one does for a payload a byte under the line (no schedule passes
  # early there).
  for mode in "" --no-reduction; do
    out=$(cargo run --release -q -p raincore-sim --bin model_check -- \
      --mtu 64 --bulk-threshold 100 --bulk-drops 1 --multicast 1:120 \
      --depth 11 --max-schedules 2000000 --min-early-passes 2 $mode)
    echo "$out"
    grep -q '\[exhausted\]' <<<"$out"
  done

  echo "==> model check (adaptive-timer space: stock detection timeouts, 3 and 4 nodes)"
  # Every leg above runs retry_timeout 10 ms — under the floor of the
  # adaptive timeout, where the transport is byte-for-byte the old one
  # (DESIGN.md §17.2) — so their counts are the parent's. This leg raises
  # the two timeouts to the values the benchmark pins, where a member that
  # has timed one acknowledgement arms 16 ms instead of 50 and the armed
  # timeouts are part of the state: 3 nodes exhaust at 3 698 schedules (3 221 with
  # fixed timers), 4 nodes at depth 10 at 542 636 (431 091).
  cargo run --release -q -p raincore-sim --bin model_check -- \
    --retry-ms 50 --hungry-ms 400 --min-schedules 3500
  out=$(cargo run --release -q -p raincore-sim --bin model_check -- \
    --nodes 4 --depth 10 --max-schedules 2000000 --retry-ms 50 --hungry-ms 400)
  echo "$out"
  grep -q '\[exhausted\]' <<<"$out"

  echo "==> model check (lost-token space: the adversary moves on a ring that has turned four times; exhausts clean, with and without the cache, and asks before it starves)"
  # No bounded depth reaches the successor probe (DESIGN.md §17.3) from a
  # cold ring — a member must see four rotations first, which is why every
  # leg above prints the parent's counts. --min-probes turns the ring four
  # times undisturbed before the adversary's first move, so every member's
  # probe limit is armed (3 nodes: 4 x 6 ms + 2 x 30 ms = 84 ms, under the
  # 100 ms hungry_timeout), and fails the run unless some schedule sent
  # that many probes: a crash of the EATING member is found by its
  # predecessor's probe (one answered by a live successor, one not), a
  # dropped probe is retransmitted, and every auditor watches the 911 round
  # a failed probe starts. 2 521 schedules with the cache, 64 756 without;
  # at the stock timeouts of the adaptive-timer leg the limit is 24 ms +
  # 2 x 48 ms, measured; four nodes send three.
  for mode in "" --no-reduction; do
    out=$(cargo run --release -q -p raincore-sim --bin model_check -- \
      --depth 14 --max-schedules 2000000 --min-probes 2 $mode)
    echo "$out"
    grep -q '\[exhausted\]' <<<"$out"
  done
  cargo run --release -q -p raincore-sim --bin model_check -- \
    --depth 16 --retry-ms 50 --hungry-ms 400 --min-probes 2
  cargo run --release -q -p raincore-sim --bin model_check -- \
    --nodes 4 --depth 14 --max-schedules 2000000 --min-probes 3
  # The guard's own guard: under a hungry_timeout no longer than the limit
  # no probe is armed (the tree before the probe, in effect), and the same
  # leg must trip on it.
  if out=$(cargo run --release -q -p raincore-sim --bin model_check -- \
    --depth 14 --hungry-ms 80 --min-probes 2 2>&1); then
    echo "--min-probes passed a space in which nobody can ask" >&2
    exit 1
  fi
  grep -q 'at most 0 successor probes' <<<"$out"
}

leg_chaos() {
  echo "==> chaos (seeded broken-heal fault must be found, shrunk and dumped)"
  cargo run --release -q -p raincore-sim --bin chaos -- --seeded-fault --dump chaos-seeded.txt

  echo "==> chaos (seeded dump must reproduce under --replay)"
  cargo run --release -q -p raincore-sim --bin chaos -- --replay chaos-seeded.txt

  echo "==> chaos (soak must be clean: 200 seeds across 4-12 nodes and every scenario)"
  cargo run --release -q -p raincore-sim --bin chaos -- --soak 200 --seed 1 --ticks 2000

  echo "==> chaos (bulk-loss soak: 200 seeds, completeness oracle, non-vacuous drops and early passes)"
  # --bulk 512 pads half the workload past the out-of-band threshold — a
  # quarter of it to 4 KiB, freight that fills the token which orders it —
  # and arms the bulk-loss fault class; the run fails if no bulk frame was
  # actually dropped or no token was passed early (vacuity guards), or if
  # any node delivers an ordered bulk id without holding its payload
  # (delivery-completeness oracle).
  cargo run --release -q -p raincore-sim --bin chaos -- --soak 200 --seed 1 --ticks 2000 --bulk 512

  echo "==> chaos (padded soak: 200 seeds of full tokens passed early, non-vacuous)"
  # --pad 3000 makes every piggybacked payload fill two datagrams on its
  # own, so the token that carries it is never held and travels as three
  # fragments; the run fails if no pass was early (vacuity guard).
  cargo run --release -q -p raincore-sim --bin chaos -- --soak 200 --seed 1 --ticks 2000 --pad 3000

  echo "==> chaos (delay-spike soak: 200 seeds of link stalls around the give-up budget, non-vacuous)"
  # --delay-spike 250 replaces the fault stream with one-shot stalls of one
  # link and runs the stock detection timeouts. First half of each run:
  # stalls longer than one armed timeout and shorter than the give-up
  # budget — no member may suspect another, and the soak fails if no stall
  # ever caused a retransmission (vacuity). Second half: stalls of up to
  # 2.5 budgets — the members behind them are evicted though alive, every
  # safety oracle must hold and the group must converge, and the soak fails
  # if no such verdict was refuted by a late acknowledgement, or if no
  # member ever sent a successor probe (vacuity: this is the one soak whose
  # timeouts arm it, DESIGN.md §17.3).
  cargo run --release -q -p raincore-sim --bin chaos -- --soak 200 --seed 1 --ticks 2000 --delay-spike 250
}

leg_experiments() {
  echo "==> experiments (release build of the workspace; fail-over under the paper's 2 s; figure 3 smoke)"
  cargo build --release --workspace --quiet
  cargo run --release -q -p raincore-bench --bin exp_failover
  cargo run --release -q -p raincore-bench --bin exp_fig3 1
}

leg_micro_bench() {
  # The baseline is the newest committed row of the trajectory, so no PR
  # edits a file name here.
  baseline=$(ls BENCH_[0-9]*.json | grep -v '\.current\.json$' | sort -V | tail -1)
  echo "==> micro-bench (report + <=25% allocation regression vs committed $baseline)"
  # Fails if any gated bench (token hop, hop latency, model-check state
  # cost, multicast throughput, UDP pps/RTT) allocates >25% more per op
  # than the baseline records — or, in-process, if id manifests stop
  # cutting the token load >=5x at 64 in-flight 1KiB multicasts, or if the
  # batched I/O backend stops moving >=3x the packets per syscall of the
  # scalar one (bench_udp_pps). Timings are report-only.
  cargo run --release -q -p raincore-bench --bin micro_bench -- \
    --out "${baseline%.json}.current.json" --compare "$baseline"
}

leg_benchmark_package() {
  echo "==> benchmark package (outside the workspace: must still build, test and run)"
  # benchmark/ has its own manifest, so `cargo build --workspace` never sees
  # it: a transport or runtime API change that breaks it would otherwise
  # surface only at the perf gate. No timing assertion here — the smoke only
  # requires the checker's verdict (exit 0 and "correct": true).
  cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
  # The benchmark may not be edited to carry allow attributes, so it gets the
  # wall-clock half of the rules through its own clippy.toml.
  CLIPPY_CONF_DIR="$PWD/scripts/benchmark-clippy" cargo clippy --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- -D clippy::disallowed_types
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload udp_bulk --seed 7 --seconds 2 --trace 0 | tail -n 1 | grep -q '"correct": true'
}

leg_procher() {
  echo "==> procher (real-socket gate: lossy soak + sim<->real differential; pinned bootstrap regression)"
  # Exit 77 means the sandbox forbids spawning subprocesses — skip, don't fail.
  cargo build --release -q -p raincore-procher
  for mode in --gate "--regression bootstrap"; do
    # shellcheck disable=SC2086  # $mode is two words on purpose
    if ./target/release/procher $mode; then
      :
    elif [ $? -eq 77 ]; then
      echo "procher $mode skipped: subprocess spawn forbidden in this environment" |
        tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
    else
      echo "procher $mode failed; see the artifact directories it printed" >&2
      exit 1
    fi
  done
}

if [ $# -eq 0 ]; then
  set -- "${legs[@]}"
fi
for leg in "$@"; do
  if ! declare -F "leg_${leg//-/_}" >/dev/null; then
    echo "unknown leg '$leg'; legs: ${legs[*]}" >&2
    exit 2
  fi
done
for leg in "$@"; do
  "leg_${leg//-/_}"
done

echo "OK"
