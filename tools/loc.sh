#!/usr/bin/env bash
# Non-test lines per crate, under one definition, so a PR that reports a
# line count can be compared with the next one:
#
#   for every `.rs` file under `crates/*/src` (the dependency shims under
#   `crates/shims/` excluded) and `examples/src`, count the non-blank
#   lines before the first `#[cfg(test)]` line that is directly followed
#   by a `mod` line (the in-file unit-test module). Comments and doc
#   comments count; blank lines and everything from that pair on do not.
#
# Prints one row per crate (its package name) and a total.
#
# Usage: tools/loc.sh  (from anywhere; reads the working tree).

set -eu

repo_root="$(cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo_root"

count_dir() { # <source dir>: non-test, non-blank lines of its .rs files
    find "$1" -name '*.rs' -type f -print0 | sort -z | xargs -0 awk '
        FNR == 1 { done = 0; held = 0 }
        done { next }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            sub(/[ \t\r]+$/, "", line)
        }
        held {
            if (line ~ /^(pub(\([a-z]+\))? )?mod /) { done = 1; held = 0; next }
            n++
            held = 0
        }
        line == "#[cfg(test)]" { held = 1; next }
        line != "" { n++ }
        END { print n + 0 }
    '
}

total=0
printf '%-18s %7s\n' crate lines
for manifest in crates/*/Cargo.toml examples/Cargo.toml; do
    dir="$(dirname -- "$manifest")"
    [ "$dir" = crates/shims ] && continue
    [ -d "$dir/src" ] || continue
    name="$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)"
    lines="$(count_dir "$dir/src")"
    printf '%-18s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-18s %7d\n' total "$total"
