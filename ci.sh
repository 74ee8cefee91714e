#!/bin/sh
# CI gate for weblint-rs: build, test, format, lint.
# Everything runs offline — external crates are vendored under vendor/.
set -eux

cargo build --workspace --release
cargo test -q --workspace
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

# Doc links: every intra-doc link in the first-party crates must resolve,
# including links into private items (the vendored stand-ins are skipped).
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --exclude criterion --exclude proptest --exclude rand \
    --exclude serde_json --no-deps --lib

# HTTP front-end smoke: bind an ephemeral port, drive every route over a
# real socket (POST fixture, duplicate for a cache hit, url= flow,
# /metrics), and require a clean graceful shutdown. Exits non-zero on any
# wrong answer.
cargo run --release -p weblint-cli --bin weblint-serve -- -smoke -jobs 2

# Chaos gate: the end-to-end fault-injection suite (determinism, per-host
# fault accounting, panic recovery, and the adaptive scheduler: AIMD
# decay before the breaker opens, hedge budget/breaker suppression,
# adaptive crawl determinism) plus the smoke test with a 20% fault
# schedule, plain and adaptive. All run under a hard wall-clock cap so a
# wedged retry loop, hung worker, or deadlocked fetch batch fails CI
# instead of stalling it.
timeout 120 cargo test -q --release --test chaos
timeout 60 cargo run --release -p weblint-cli --bin weblint-serve -- \
    -smoke -jobs 2 -faults 20% -fault-seed 7
timeout 60 cargo run --release -p weblint-cli --bin weblint-serve -- \
    -smoke -jobs 2 -faults 20% -fault-seed 7 -adaptive

# Adaptive scheduler perf smoke (E15): the bench's shape pass runs every
# discipline (sequential / fixed / adaptive) once over the sleepy
# transport; criterion --test mode skips measurement, so this is a
# liveness-and-speed gate, not a timing assertion.
timeout 180 cargo bench -p weblint-bench --bench adaptive -- --test

# Perf gates for the zero-allocation hot path (E14):
#  - golden byte-identity of lint output over the whole corpus,
#  - the interner-fallback canary (no name in clean HTML may allocate),
#  - release-mode throughput floors on big.html and the generated corpus,
#    under timeout so a wedged engine fails fast.
cargo test -q --release --test golden_corpus --test atom_canary
timeout 90 cargo test -q --release --test perf_smoke

# Autofix gates (E16): the fix contract over the whole mutation corpus
# (monotone / idempotent / surgical, fixable classes repair to clean,
# unfixable classes round-trip byte-identical) plus the per-class golden
# repair pairs; perf_smoke above already guards that fix emission stays
# off the one-shot hot path.
timeout 120 cargo test -q --release --test fix_properties --test golden_fixes

# Rules-as-data gates (E17): the registry audit (catalog == registry,
# dispatch masks mirror the applies column, every fixable rule
# demonstrates a mechanical fix and no other rule may attach one) and
# the bootstrap rule-pack contract (fires under its own id in every
# format, disables by id and by pragma, no-op packs leave output
# byte-identical). perf_smoke above already guards the idle-custom-rule
# throughput ratio and the interner canaries.
timeout 90 cargo test -q --release --test registry --test custom_rules

# Catalog smoke: every identifier the registry knows (plus the example
# pack's custom rules) must render an -explain entry, and the registry
# dump and id listing exit clean.
timeout 60 sh -c '
  set -eu
  bin=target/release/weblint
  "$bin" -noglobals -f examples/bootstrap.weblintrc -list > /dev/null
  for id in $("$bin" -noglobals -f examples/bootstrap.weblintrc -ids); do
    "$bin" -noglobals -f examples/bootstrap.weblintrc -explain "$id" > /dev/null
  done
'

# End-to-end -fix smoke: -diff prints the repair without writing, -fix
# repairs in place behind a .orig backup, and the repaired page lints
# clean (exit 0).
fixdir="$(mktemp -d)"
printf '%s\n' '<HTML><HEAD><TITLE>t</TITLE></HEAD>' '<BODY>' \
    '<H1>My Example</H2>' '</BODY></HTML>' > "$fixdir/page.html"
cp "$fixdir/page.html" "$fixdir/before.html"
cargo run --release -p weblint-cli --bin weblint -- -fix -diff "$fixdir/page.html" \
    | grep -q '^+<H1>My Example</H1>$'
cmp "$fixdir/page.html" "$fixdir/before.html"
cargo run --release -p weblint-cli --bin weblint -- -fix "$fixdir/page.html"
test -f "$fixdir/page.html.orig"
cmp "$fixdir/page.html.orig" "$fixdir/before.html"
cargo run --release -p weblint-cli --bin weblint -- "$fixdir/page.html"
rm -rf "$fixdir"

# Crash-safe crawling gates (E18). The torture suite proves the
# checkpoint decoder refuses every truncation offset and bit flip
# cleanly; the shell gates prove the CLI contract: a paused or
# hard-killed crawl, resumed at the same flags, reproduces the
# uninterrupted run's stdout byte for byte. (The chaos suite above
# already covers shard death, checkpoint corruption fallback, and
# fingerprint refusal in-process.)
timeout 120 cargo test -q --release --test checkpoint_torture

poacher=target/release/poacher
ckroot="$(mktemp -d)"
crawl="-mega 8x100 -shards 4 -jobs 4 -stats -faults 10% -fault-seed 7 -adaptive -quiet"

# Golden uninterrupted run: exit 1 because the mega-site plants lint
# defects and dead links on purpose.
rc=0; "$poacher" $crawl > "$ckroot/golden.out" || rc=$?
test "$rc" -eq 1

# Graceful pause + resume: raise the stop sentinel so the crawl flushes
# a checkpoint and exits 0 almost immediately; clear it and resume —
# the completed run's stdout must equal the golden bytes.
touch "$ckroot/stop"
rc=0; "$poacher" $crawl -checkpoint-dir "$ckroot/pause" -checkpoint-every 8 \
    -stop-file "$ckroot/stop" > /dev/null || rc=$?
test "$rc" -eq 0 -o "$rc" -eq 1
rm -f "$ckroot/stop"
rc=0; "$poacher" $crawl -checkpoint-dir "$ckroot/pause" -checkpoint-every 8 \
    -resume > "$ckroot/resumed.out" || rc=$?
test "$rc" -eq 1
cmp "$ckroot/resumed.out" "$ckroot/golden.out"

# Hard kill + resume: SIGKILL the crawl mid-flight (137) — or, on a
# fast box, let it finish (1); either way resuming at the same flags
# must reproduce the golden stdout byte for byte.
rc=0; timeout -s KILL 0.08 "$poacher" $crawl -checkpoint-dir "$ckroot/kill" \
    -checkpoint-every 8 > /dev/null 2>&1 || rc=$?
test "$rc" -eq 137 -o "$rc" -eq 1
rc=0; "$poacher" $crawl -checkpoint-dir "$ckroot/kill" -checkpoint-every 8 \
    -resume > "$ckroot/killed.out" || rc=$?
test "$rc" -eq 1
cmp "$ckroot/killed.out" "$ckroot/golden.out"
rm -rf "$ckroot"

# Shard-scaling perf smoke (E18): the bench's shape pass crawls the
# sleepy federation at 1/2/4/8 shards and asserts the merged report is
# identical at every width; criterion --test mode skips measurement.
timeout 180 cargo bench -p weblint-bench --bench shards -- --test

# C10k serving gates (E19). Mode parity first: both serving modes must
# answer a 19-request corpus byte-identically with counters in
# lockstep, then survive a 1000-connection two-round keep-alive soak
# (the threaded fallback included, at a width its design still
# carries). Under a hard cap so a deadlocked readiness loop fails CI
# instead of hanging it.
timeout 120 cargo test -q --release --test event_loop

# E19 bench smoke: burst throughput event-loop vs threaded at
# 64/256/1024 connections (the loop is gated at >= 0.85x threaded at
# every width) plus the idle phase — 10k parked keep-alive connections
# on one loop thread with flat RSS and zero thread growth, asserted
# from /proc/<pid>/status of the weblint-serve subprocess.
timeout 300 cargo bench -p weblint-bench --bench c10k -- --test

# The serve smoke must pass in the threaded fallback too.
timeout 60 cargo run --release -p weblint-cli --bin weblint-serve -- \
    -smoke -jobs 2 -threaded

# Streaming session gates (E20). The chunk-boundary equivalence suite
# proves diagnostics are byte-identical no matter where feed boundaries
# fall (every corpus document at every offset of a sliding window,
# big.html windows, seeded random partitions, splits inside multi-byte
# characters); the bench shape pass gates time-to-first-finding flatness
# across a 100x size range and the one-shot throughput toll. The serve
# smoke above already exercises the chunked-upload wire path end to end.
timeout 120 cargo test -q --release --test streaming_parity
timeout 180 cargo bench -p weblint-bench --bench streaming -- --test

# Benchmark oracles (E21): a short `files` run over the whole seeded
# corpus exits non-zero unless every document's streamed diagnostics
# equal its one-shot ones and the Fixer reports the one-shot ids. Only
# the exit status is gated here, not the timings.
timeout 120 cargo run --release --offline --quiet --manifest-path wlbench/Cargo.toml -- \
    --workload files --seed 1 --seconds 5 --trace 0

# The `crawl` workload's oracle: a short sharded crawl over the seeded
# federations exits non-zero unless every generated page is crawled
# exactly once and the planted lint defects and dead links are all
# reported. Again only the exit status is gated.
timeout 180 cargo run --release --offline --quiet --manifest-path wlbench/Cargo.toml -- \
    --workload crawl --seed 1 --seconds 5 --trace 0

# weblint - must lint an unbuffered stdin stream like the file path.
printf '<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>' \
    | cargo run --release -p weblint-cli --bin weblint -- - \
    | grep -q 'malformed heading'
