#!/usr/bin/env bash
# Workspace lint gate: formatting, clippy (warnings are errors),
# build, and the full test suite. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --all-targets"
cargo build --workspace --all-targets

echo "==> cargo test --workspace (2 harness threads; service/chaos tests spawn their own)"
cargo test --workspace --quiet -- --test-threads=2

echo "==> chaos suite (Table-1 queries under 200 fixed-seed fault plans)"
cargo test --quiet --test chaos -- --test-threads=1

echo "==> cargo bench --no-run (criterion harnesses compile)"
cargo bench --workspace --no-run --quiet

echo "==> perfbench smoke (every workload for 2 s; a wrong answer exits nonzero)"
for workload in paper-mix adhoc-twigs scan-bound; do
  cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 >/dev/null
done

echo "==> planlint selftest"
cargo run --quiet --bin planlint -- --query '//a/b/c' --selftest >/dev/null

echo "==> planlint certify (DP, DPP, DPP' and DPAP-LD traces over the three corpora)"
for spec in "pers:3000:'//manager//employee/name'" \
            "dblp:3000:'//dblp/article[./author][./title]'" \
            "mbench:1500:'//eNest//eNest/eOccasional'"; do
  gen="${spec%%:*}"; rest="${spec#*:}"
  n="${rest%%:*}"; query="${rest#*:}"; query="${query%\'}"; query="${query#\'}"
  for algo in dp dpp dpp-nl dpap-ld; do
    cargo run --quiet --bin planlint -- certify \
      --gen "$gen:$n" --query "$query" --algo "$algo" --json >/dev/null
  done
done

echo "==> planlint certify reports a DPAP-EB budget cutoff under PL053 (expected exit 1)"
if eb=$(cargo run --quiet --bin planlint -- certify --gen pers:3000 \
    --query '//manager//employee/name' --algo dpap-eb:1 --json); then
  echo "budget-cut DPAP-EB trace certified clean" >&2
  exit 1
fi
if ! grep -q '"PL053"' <<<"$eb"; then
  echo "DPAP-EB budget cutoff not reported under PL053" >&2
  exit 1
fi

echo "==> planlint admit (resource-bound admission over the three corpora)"
cargo run --quiet --bin planlint -- admit \
  --gen pers:3000 --query '//manager//employee/name' --json >/dev/null
cargo run --quiet --bin planlint -- admit \
  --gen dblp:3000 --query '//dblp/article[./author][./title]' --json >/dev/null
cargo run --quiet --bin planlint -- admit \
  --gen mbench:1500 --query '//eNest//eNest/eOccasional' --json >/dev/null

echo "==> planlint admit rejects a starved budget (expected exit 1)"
if cargo run --quiet --bin planlint -- admit --query '//a/b/c' \
    --memory-budget 16B --json >/dev/null; then
  echo "starved budget admitted" >&2
  exit 1
fi

echo "==> planlint rules (catalog renders in both formats)"
cargo run --quiet --bin planlint -- rules >/dev/null
cargo run --quiet --bin planlint -- rules --json >/dev/null

echo "==> planlint conc (static pass + seed-pinned interleaving explorer certify clean)"
cargo run --quiet --bin planlint -- conc --json >/dev/null

echo "==> planlint conc --selftest (every seeded mutation + model defect is caught)"
cargo run --quiet --bin planlint -- conc --selftest >/dev/null

echo "==> planlint certify rejects a corrupted trace (expected exit 1)"
if cargo run --quiet --bin planlint -- certify --query '//a/b/c' \
    --corrupt inflate-ubcost --json >/dev/null; then
  echo "corrupted trace certified clean" >&2
  exit 1
fi

echo "==> cargo doc (missing docs are errors; vendored stubs excluded)"
RUSTDOCFLAGS="-D warnings -D missing_docs" cargo doc --no-deps --quiet \
  -p sjos -p sjos-xml -p sjos-storage -p sjos-pattern -p sjos-stats \
  -p sjos-exec -p sjos-core -p sjos-datagen -p sjos-planck -p sjos-bench

echo "all checks passed"
