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
# instead of stalling it. The suite also carries two scaling gates:
#  - E15: every discipline (sequential, fixed 8-wide, adaptive 8-wide)
#    at 0/20/50% faults over a transport with real 2 ms round trips must
#    finish inside the scout thread's deadline, and fault-free they must
#    all report the same bytes;
#  - E18: the three-host federation and a generated 8x12 MegaSite
#    federation behind a 2 ms transport, crawled at 1/2/4/8 shards, must
#    give the identical merged report, and the MegaSite crawl must reach
#    every generated page.
timeout 120 cargo test -q --release --test chaos
timeout 60 cargo run --release -p weblint-cli --bin weblint-serve -- \
    -smoke -jobs 2 -faults 20% -fault-seed 7
timeout 60 cargo run --release -p weblint-cli --bin weblint-serve -- \
    -smoke -jobs 2 -faults 20% -fault-seed 7 -adaptive

# Perf gates for the zero-allocation hot path (E14, E20b):
#  - golden byte-identity of lint output over the whole corpus,
#  - the interner-fallback canary (no name in clean HTML may allocate),
#  - the idle custom rule's element gate, counted: zero passes on corpus
#    documents without its element,
#  - release-mode floors on generated corpus documents (docs/s, and the
#    streamed-vs-one-shot toll measured in interleaved rounds), plus the
#    labelled big.html edge-case row (one text token: a byte scan),
#    under timeout so a wedged engine fails fast.
cargo test -q --release --test golden_corpus --test atom_canary
timeout 90 cargo test -q --release --test perf_smoke

# Tokenizer gates (E25): every token of 168 documents against its
# parent-recorded digest, and the seeded fuzz gate (mutated corpus
# windows, one-shot vs streamed at random chunkings; ~1 s in release).
timeout 60 cargo test -q --release --test token_golden --test tokenizer_fuzz

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
# byte-identical). perf_smoke above already counts the idle custom
# rule's element-gate passes and checks the interner canaries.
timeout 90 cargo test -q --release --test registry --test custom_rules

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
# Wait until the crawl with pid $2 publishes its first checkpoint in $1
# (or exits first): the gates below interrupt a crawl from there, in
# mid-crawl, rather than on a timer a fast crawl outruns.
first_checkpoint() {
    while [ ! -e "$1/manifest.ckpt" ] && kill -0 "$2" 2>/dev/null; do
        sleep 0.01
    done
}
crawl="-mega 8x100 -shards 4 -jobs 4 -stats -faults 10% -fault-seed 7 -adaptive -quiet"

# Golden uninterrupted run: exit 1 because the mega-site plants lint
# defects and dead links on purpose.
rc=0; "$poacher" $crawl > "$ckroot/golden.out" || rc=$?
test "$rc" -eq 1

# Graceful pause + resume: raise the stop sentinel once the first
# checkpoint is published, so the crawl flushes a checkpoint from
# mid-crawl and exits 0 (a crawl that finishes first exits 1 and resumes
# as complete); clear it and resume — the completed run's stdout must
# equal the golden bytes.
"$poacher" $crawl -checkpoint-dir "$ckroot/pause" -checkpoint-every 8 \
    -stop-file "$ckroot/stop" > /dev/null &
pid=$!
first_checkpoint "$ckroot/pause" "$pid"
touch "$ckroot/stop"
rc=0; wait "$pid" || rc=$?
test "$rc" -eq 0 -o "$rc" -eq 1
rm -f "$ckroot/stop"
rc=0; "$poacher" $crawl -checkpoint-dir "$ckroot/pause" -checkpoint-every 8 \
    -resume > "$ckroot/resumed.out" || rc=$?
test "$rc" -eq 1
cmp "$ckroot/resumed.out" "$ckroot/golden.out"

# Hard kill + resume: SIGKILL the crawl (137) once the first checkpoint
# is published, so it dies mid-crawl rather than before or after it —
# or, if it outruns the kill, let it finish (1); either way resuming at
# the same flags must reproduce the golden stdout byte for byte.
"$poacher" $crawl -checkpoint-dir "$ckroot/kill" -checkpoint-every 8 \
    > /dev/null 2>&1 &
pid=$!
first_checkpoint "$ckroot/kill" "$pid"
kill -KILL "$pid" 2>/dev/null || true
rc=0; wait "$pid" || rc=$?
test "$rc" -eq 137 -o "$rc" -eq 1
rc=0; "$poacher" $crawl -checkpoint-dir "$ckroot/kill" -checkpoint-every 8 \
    -resume > "$ckroot/killed.out" || rc=$?
test "$rc" -eq 1
cmp "$ckroot/killed.out" "$ckroot/golden.out"

# The same pause + resume with faults but no -adaptive: the stack then
# holds the fault and resilience layers without pacing, a shape the
# gates above never write to disk. Golden from its own uninterrupted
# run. The sentinel goes up once the first checkpoint is published, so
# the resume reads fault and breaker state from mid-crawl, as above.
faulty="-mega 8x100 -shards 4 -jobs 4 -stats -faults 10% -fault-seed 7 -quiet"
rc=0; "$poacher" $faulty > "$ckroot/faulty.out" || rc=$?
test "$rc" -eq 1
"$poacher" $faulty -checkpoint-dir "$ckroot/faulty" -checkpoint-every 8 \
    -stop-file "$ckroot/stop" > /dev/null &
pid=$!
first_checkpoint "$ckroot/faulty" "$pid"
touch "$ckroot/stop"
rc=0; wait "$pid" || rc=$?
test "$rc" -eq 0 -o "$rc" -eq 1
rm -f "$ckroot/stop"
rc=0; "$poacher" $faulty -checkpoint-dir "$ckroot/faulty" -checkpoint-every 8 \
    -resume > "$ckroot/faulty-resumed.out" || rc=$?
test "$rc" -eq 1
cmp "$ckroot/faulty-resumed.out" "$ckroot/faulty.out"

# One crawler, any width: without faults the report is a property of the
# site, so the defaults (-shards 1 -jobs 1) and -shards 4 -jobs 4 must
# print the same bytes (exit 1: the planted defects and dead links).
# -jobs covers the HEAD link checks as well as the page GETs, so this
# compares one-at-a-time requests with four-wide batches too.
rc=0; "$poacher" -mega 8x100 -quiet -fault-seed 7 > "$ckroot/narrow.out" || rc=$?
test "$rc" -eq 1
rc=0; "$poacher" -mega 8x100 -quiet -fault-seed 7 -shards 4 -jobs 4 \
    > "$ckroot/wide.out" || rc=$?
test "$rc" -eq 1
cmp "$ckroot/narrow.out" "$ckroot/wide.out"
# More shards than hosts: the shards no host hashes to never get work,
# so their threads are never spawned, and the report must not notice.
rc=0; "$poacher" -mega 8x100 -quiet -fault-seed 7 -shards 16 -jobs 3 \
    > "$ckroot/sparse.out" || rc=$?
test "$rc" -eq 1
cmp "$ckroot/narrow.out" "$ckroot/sparse.out"
rm -rf "$ckroot"

# C10k serving gates (E19). The wire transcript first: a 19-request
# corpus must answer byte-for-byte as tests/golden/http_responses.txt
# records, counter deltas and masked /metrics included, then the loop
# must survive a 1000-connection two-round keep-alive soak. Under a
# hard cap so a deadlocked readiness loop fails CI instead of hanging
# it.
timeout 120 cargo test -q --release --test event_loop

# E19 idle scale: 10k parked keep-alive connections on one loop thread
# with flat RSS and zero thread growth, asserted from /proc/<pid>/status
# of a weblint-serve subprocess. Ignored by default (it needs an
# open-file limit above 10k), so it runs here with --ignored.
timeout 300 cargo test -q --release -p weblint-cli --test c10k -- --ignored

# Streaming session gates (E20). The chunk-boundary equivalence suite
# proves diagnostics are byte-identical no matter where feed boundaries
# fall (every corpus document at every offset of a sliding window,
# big.html windows, seeded random partitions, splits inside multi-byte
# characters). Time-to-first-finding is flat across a 100x size range,
# counted: an early defect leaves the session on the first 8 KiB feed at
# 64 KiB, 640 KiB and 6.4 MiB. perf_smoke above gates the one-shot
# throughput toll. The serve smoke above already exercises the
# chunked-upload wire path end to end.
timeout 120 cargo test -q --release --test streaming_parity

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
# The same oracle at a held-out seed, so the batched HEAD link checks are
# checked on federations the seed-1 run never sees. Exit status only.
timeout 180 cargo run --release --offline --quiet --manifest-path wlbench/Cargo.toml -- \
    --workload crawl --seed 11 --seconds 3 --trace 0
