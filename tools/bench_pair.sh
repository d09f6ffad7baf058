#!/usr/bin/env bash
# Paired benchmark runs: a parent commit against the working tree.
#
# The procedure every performance claim in CHANGES.md rests on (see
# benchmark/README.md, "Noise"): this machine drifts by tens of percent
# over minutes, so the two sides are built once each and then run
# alternately, pair i on seed i, odd pairs parent first — only the
# per-pair ratios and the win count mean much. After a workload's pairs,
# one `--trace 1` run per side prints its stage budget and bytes per row,
# so the stage a change touched shows its before/after row. Each metric's
# summary ends with two verdicts: the claim rule (the change wins at
# least 9/10 of the pairs and its median beats the parent's by more than
# the parent's q3 − q1) and the regression rule (the change's median is
# no worse than the parent's by more than the metric's `bound` in
# BENCHMARK.json's `end_to_end`, which the script only reads).
#
# Usage: tools/bench_pair.sh <parent-ref> <workload>[,<workload>...] [pairs=10] [seconds]
#
#   <parent-ref>  any commit-ish; exported with `git archive` into
#                 target/bench_pair/parent (no worktree metadata to prune)
#   <workload>    workload names from BENCHMARK.json, comma-separated
#                 (`recover,durable_fleet,ingest_hot`); each gets all its
#                 pairs, then its own summary block, in the order given
#   [seconds]     run length; defaults to BENCHMARK.json's run_seconds
#
# Both sides build into their own directories under target/bench_pair/,
# which the root .gitignore already covers. The script only invokes the
# benchmark driver; it changes nothing under benchmark/.

set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    echo "usage: tools/bench_pair.sh <parent-ref> <workload>[,<workload>...] [pairs=10] [seconds]" >&2
    exit 2
fi
parent_ref="$1"
IFS=',' read -r -a workloads <<<"$2"
pairs="${3:-10}"

repo_root="$(cd -- "$(dirname -- "$0")/.." && pwd)"
seconds="${4:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$repo_root/BENCHMARK.json")}"
work="$repo_root/target/bench_pair"
parent_tree="$work/parent"

rm -rf "$parent_tree"
mkdir -p "$parent_tree"
git -C "$repo_root" archive "$parent_ref" | tar -x -C "$parent_tree"

build() { # <tree> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --quiet --offline \
        --manifest-path benchmark/Cargo.toml)
}
echo "building parent ($parent_ref) and working tree ..." >&2
build "$parent_tree" "$work/target-parent"
build "$repo_root" "$work/target-change"

field() { # <json line> <metric>
    printf '%s' "$1" | sed -n "s/.*\"$2\": {\"value\": \([-0-9.e+]*\).*/\1/p"
}

run() { # <side> <pair>; reads $workload, appends to $results
    local line
    line="$("$work/target-$1/release/ldp-benchmark" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)"
    case "$line" in
        '{"correct": true, '*'"failed": 0, '*) ;;
        *) echo "run failed its gates ($workload, $1, seed $2): $line" >&2; exit 1 ;;
    esac
    printf '%s\t%s\t%s\t%s\t%s\n' "$2" "$1" \
        "$(field "$line" rows_per_s)" "$(field "$line" setup_s)" \
        "$(field "$line" peak_rss_mb)" | tee -a "$results"
}

# The regression bound of an end-to-end metric, read from BENCHMARK.json.
bound_of() { # <metric>
    awk -v metric="$1" '
        /"end_to_end"/ { in_list = 1 }
        in_list && /^ *\]/ { in_list = 0 }
        in_list && /"name":/ { name = $0; gsub(/.*"name": *"|".*/, "", name) }
        in_list && /"bound":/ && name == metric {
            bound = $0; gsub(/.*"bound": *|[ ,]*$/, "", bound); print bound; exit
        }' "$repo_root/BENCHMARK.json"
}

# Median, q1, q3 and count of one side's runs of one metric (linear
# interpolation between order statistics).
quartiles() { # <side> <column>; reads $results
    awk -F'\t' -v side="$1" -v col="$2" '$2 == side { print $col }' "$results" |
        sort -g |
        awk '
            { v[NR] = $1 }
            function q(p,    h, lo) {
                h = (NR - 1) * p + 1; lo = int(h)
                return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
            }
            END { printf "%.6g %.6g %.6g %d\n", q(0.5), q(0.25), q(0.75), NR }'
}

# Per side and metric: quartiles, then the win count (pairs where the
# change reads better) with the per-pair change/parent ratios, then the
# two verdicts a claim and a regression are judged by.
summarize() { # reads $results
    local spec parent_stats change_stats wins ratios won pairs_run ties
    for spec in "rows_per_s 3 higher" "setup_s 4 lower" "peak_rss_mb 5 lower"; do
        set -- $spec
        parent_stats="$(quartiles parent "$2")"
        change_stats="$(quartiles change "$2")"
        # shellcheck disable=SC2086 # each side's four numbers, one line each
        printf '%-22s median %s  q1 %s  q3 %s  (n=%s)\n' \
            "$1 parent" $parent_stats "$1 change" $change_stats
        # Per-pair change/parent ratios, sorted: a claim is read as their
        # median, so it is printed beside the win count with its range.
        ratios="$(awk -F'\t' -v col="$2" '
                $2 == "parent" { p[$1] = $col }
                $2 == "change" { c[$1] = $col }
                END { for (i in p) if ((i in c) && p[i] != 0) print c[i] / p[i] }' "$results" |
            sort -g |
            awk '{ v[NR] = $1 }
                END {
                    if (NR == 0) { printf "no ratios"; exit }
                    m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
                    printf "change/parent median %.4f  min %.4f  max %.4f", m, v[1], v[NR]
                }')"
        wins="$(awk -F'\t' -v col="$2" -v better="$3" '
            $2 == "parent" { p[$1] = $col }
            $2 == "change" { c[$1] = $col }
            END {
                for (i in p) {
                    if (c[i] == p[i]) ties++
                    else if ((better == "higher") == (c[i] > p[i])) wins++
                }
                printf "%d %d %d\n", wins, length(p), ties
            }' "$results")"
        read -r won pairs_run ties <<<"$wins"
        printf '%-22s change better in %d of %d pairs (%d ties); %s\n' \
            "$1" "$won" "$pairs_run" "$ties" "$ratios"
        awk -v label="$1" -v better="$3" -v bound="$(bound_of "$1")" \
            -v won="$won" -v pairs="$pairs_run" -v p="$parent_stats" -v c="$change_stats" '
            BEGIN {
                split(p, ps, " "); split(c, cs, " ")
                gain = better == "higher" ? cs[1] - ps[1] : ps[1] - cs[1]
                iqr = ps[3] - ps[2]
                claim = won * 10 >= pairs * 9 && gain > iqr
                printf "%-22s claim %s: wins %d/%d (need 9/10 of pairs), median gain %.6g vs parent q3-q1 %.6g\n",
                       label, (claim ? "MET" : "not met"), won, pairs, gain, iqr
                worse = ps[1] == 0 ? 0 : -gain / ps[1]
                printf "%-22s regression %s: change median %.6g vs parent %.6g, %.2f%% %s, bound %.0f%% worse\n\n",
                       label, (worse > bound ? "PAST BOUND" : "within bound"), cs[1], ps[1],
                       100 * (worse < 0 ? -worse : worse), (worse > 0 ? "worse" : "better"), 100 * bound
            }'
    done
}

# One traced run per side (seed 1): the stage-budget table, then the
# bytes each row costs on the wire and in the log.
traced() { # reads $workload
    local side out
    for side in parent change; do
        out="$("$work/target-$side/release/ldp-benchmark" \
            --workload "$workload" --seed 1 --seconds "$seconds" --trace 1)"
        echo "-- traced $side"
        printf '%s\n' "$out" | awk '
            /^stage budget for / { table = 1 }
            table && !/^(stage budget for |  )/ { table = 0 }
            table || /^(wal\.bytes_per_row|serve\.bytes_in_per_row) / { print }'
        echo
    done
}

for workload in "${workloads[@]}"; do
    results="$work/runs-$workload.tsv"
    : >"$results"
    echo "== $workload"
    printf 'pair\tside\trows_per_s\tsetup_s\tpeak_rss_mb\n'
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$pair"
            run change "$pair"
        else
            run change "$pair"
            run parent "$pair"
        fi
    done
    echo
    summarize
    traced
done
