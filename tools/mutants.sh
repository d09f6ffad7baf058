#!/usr/bin/env bash
# Mutant ledger: every guarantee names a defect it is shown to catch.
#
# Each tools/mutants/NN-name.patch is one small defect a real change could
# plausibly write, as a unified diff preceded by a header:
#
#   Mutant:    a short id (M1, M2, ...)
#   Guarantee: the promise the defect breaks
#   Defect:    what the patch changes
#   Targets:   the `cargo test` arguments that must notice it
#   Expect:    `killed`, or `survives (item N)` for a known gap that the
#              ROADMAP item N is to close
#
# The script exports <ref> (default HEAD) with `git archive` into
# target/mutants/tree, then for each patch: applies it, builds and runs its
# targets offline, prints one verdict line, and restores the tree. One tree
# and one target directory serve every mutant, so each is an incremental
# build of the crates its patch touches. A patch that no longer applies or
# a mutant that does not build is a failure of the ledger, not a kill.
#
# Exits non-zero when a `killed` mutant survives (a check stopped checking)
# or a `survives` mutant is killed (a gap closed: flip its entry and say so
# in CHANGES.md), or when a patch does not apply or build.
#
# Usage: tools/mutants.sh [ref]
#   To run the ledger on uncommitted tracked changes:
#   tools/mutants.sh "$(git stash create)"

set -euo pipefail

if [ "$#" -gt 1 ]; then
    echo "usage: tools/mutants.sh [ref]" >&2
    exit 2
fi
repo_root="$(cd -- "$(dirname -- "$0")/.." && pwd)"
ref="${1:-HEAD}"
work="$repo_root/target/mutants"
tree="$work/tree"

rm -rf "$tree"
mkdir -p "$tree"
git -C "$repo_root" archive "$ref" | tar -x -C "$tree"
# The tree is its own repository so `git apply` and the restore act on it,
# not on the checkout it sits in.
git -C "$tree" init -q
git -C "$tree" add -A
git -C "$tree" -c user.name=mutants -c user.email=mutants@localhost commit -q -m base
export CARGO_TARGET_DIR="$work/target"

header() { # <patch> <field>
    sed -n "s/^$2: *//p" "$1" | head -n 1
}

failures=0
for patch in "$repo_root"/tools/mutants/*.patch; do
    name="$(basename "$patch" .patch)"
    id="$(header "$patch" Mutant)"
    expect="$(header "$patch" Expect)"
    read -r -a targets <<<"$(header "$patch" Targets)"
    log="$work/$name.log"
    if ! git -C "$tree" apply "$patch" 2>"$log"; then
        verdict="does not apply"
    elif ! (cd "$tree" && cargo test -q --offline --no-run "${targets[@]}") >>"$log" 2>&1; then
        verdict="does not build"
    elif (cd "$tree" && cargo test -q --offline "${targets[@]}") >>"$log" 2>&1; then
        verdict="survives"
    else
        verdict="killed"
    fi
    git -C "$tree" checkout -q -- .
    case "$verdict" in
        "${expect%% *}") status="ok" ;;
        *) status="UNEXPECTED"; failures=$((failures + 1)) ;;
    esac
    printf '%-3s %-48s %-14s expected %-22s %s\n' "$id" "$name" "$verdict" "$expect" "$status"
done

if [ "$failures" -gt 0 ]; then
    echo "$failures mutant(s) off the ledger; logs in $work" >&2
    exit 1
fi
