#!/usr/bin/env bash
# One-harness lint: performance is measured in exactly one place —
# `benchmark/`, the package BENCHMARK.json declares — and paper artifacts
# are regenerated in exactly one place, `repro`. A second timing loop with
# its own floors and its own environment variables is how README came to
# quote figures the gated benchmark never produced, so this script fails
# CI when one grows back, and keeps the environment-variable list honest:
#
#   * no `[[bench]]` table in any Cargo.toml
#   * none of the deleted harness's names — its variable prefix, its
#     cargo subcommand, its crate, its timing shim — anywhere outside
#     `benchmark/`, the history files (CHANGES.md, ROADMAP.md, ISSUE.md)
#     and this script
#   * no timing call (`Instant`, `SystemTime`, `.elapsed(`) anywhere under
#     crates/experiments/ or examples/: `repro` and the demos print
#     answers, never rates (the dashboard examples are the one exemption)
#   * every `LDP_*` literal under crates/, tests/, examples/ is a row of
#     README's "Environment variables" table, and every row is read by
#     code: a variable cannot appear or linger undocumented
#
# Usage: tools/lint_one_harness.sh  (from anywhere; exits non-zero on
# violations and prints each offending line).

set -u

repo_root="$(cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo_root" || exit 1

# Build output is not source: every target directory, the benchmark
# driver's .bench_build, and git's own files.
prune=(-name target -o -name .bench_build -o -name .git)

violations=0
report() { # <rule text> <offending lines>
    [ -z "$2" ] && return
    echo "one-harness lint: $1" >&2
    while IFS= read -r line; do
        echo "  $line" >&2
        violations=$((violations + 1))
    done <<<"$2"
}

report "[[bench]] table in a Cargo.toml (time it in benchmark/ instead):" \
    "$(find . \( "${prune[@]}" \) -prune -o -name Cargo.toml -print0 |
        xargs -0 grep -nE '^\[\[bench\]\]')"

banned='LDP_BENCH_|cargo bench|ldp-bench([^m]|$)|criterion'
report "a name of the deleted bench harness (measure with benchmark/, regenerate with repro):" \
    "$(find . \( "${prune[@]}" -o -path ./benchmark \) -prune -o -type f \
        ! -path ./CHANGES.md ! -path ./ROADMAP.md ! -path ./ISSUE.md \
        ! -path ./tools/lint_one_harness.sh -print0 |
        xargs -0 grep -InE "$banned")"

# The three dashboard examples poll on a clock by design. ROADMAP item 6's
# `ldp-top` replaces and deletes them, and this exemption goes with them.
timing_exempt='examples/src/bin/(live_dashboard|remote_dashboard|telemetry_dashboard)\.rs'
report "a timing call under crates/experiments/ or examples/ (measure with benchmark/):" \
    "$(find crates/experiments examples \( "${prune[@]}" \) -prune -o -type f -print0 |
        xargs -0 grep -HInE 'Instant|SystemTime|\.elapsed\(' | grep -vE "^$timing_exempt:")"

in_code="$(find crates tests examples \( "${prune[@]}" \) -prune -o -type f -print0 |
    xargs -0 grep -IhoE 'LDP_[A-Z0-9_]+' | sort -u)"
in_table="$(awk '/^## /{in_section = ($0 == "## Environment variables")} in_section' README.md |
    grep -oE '^\| `LDP_[A-Z0-9_]+`' | grep -oE 'LDP_[A-Z0-9_]+' | sort -u)"
report "LDP_* variable in crates/, tests/ or examples/ with no row in README's \"Environment variables\" table:" \
    "$(comm -23 <(echo "$in_code") <(echo "$in_table"))"
report "row of README's \"Environment variables\" table that no code under crates/, tests/, examples/ names:" \
    "$(comm -13 <(echo "$in_code") <(echo "$in_table"))"

if [ "$violations" -gt 0 ]; then
    echo "one-harness lint: $violations violation(s)." >&2
    exit 1
fi

echo "one-harness lint: OK (no bench target, no second harness, no timing call in repro or the demos, $(grep -c . <<<"$in_table") LDP_* variables == README's table)."
