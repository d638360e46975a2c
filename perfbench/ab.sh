#!/usr/bin/env bash
# A/B recipe: measure a parent revision against the working tree with the
# same benchmark code, alternating which side runs first in each pair.
#
#   perfbench/ab.sh PARENT_REV [WORKLOAD ...]
#
# Environment:
#   AB_DIR     working directory for the parent worktree, both builds and
#              the result files (default: a new directory under /tmp)
#   AB_SECONDS run length, as in BENCHMARK.json (default: its run_seconds)
#
# The parent revision is checked out in a temporary `git worktree`, and this
# tree's `perfbench/` and `BENCHMARK.json` are copied over it, so both
# sides run identical benchmark code. Pair i runs held-out seed i from
# `perfbench/seeds.json` on both sides; even pairs start with the parent,
# odd pairs with the change. Results go to $AB_DIR/parent.jsonl and
# $AB_DIR/change.jsonl, and the comparison tool reads them at the end.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,17p' "$0"
    exit 2
fi
parent_rev=$1
shift
here=$(cd "$(dirname "$0")/.." && pwd)
ab_dir=${AB_DIR:-$(mktemp -d /tmp/perfbench-ab.XXXXXX)}
mkdir -p "$ab_dir"
seconds=${AB_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/BENCHMARK.json")}
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$here/BENCHMARK.json")
fi
mapfile -t seeds < <(python3 -c 'import json,sys; [print(s) for s in json.load(open(sys.argv[1]))["held_out"]]' "$here/perfbench/seeds.json")

parent_tree="$ab_dir/parent"
if [ ! -d "$parent_tree" ]; then
    git -C "$here" worktree add --detach "$parent_tree" "$parent_rev"
fi
rm -rf "$parent_tree/perfbench"
cp -r "$here/perfbench" "$here/BENCHMARK.json" "$parent_tree/"

build() { # tree target_dir
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
}
build "$parent_tree" "$ab_dir/target-parent"
build "$here" "$ab_dir/target-change"

run_side() { # side tree workload seed
    local bin="$ab_dir/target-$1/release/perfbench"
    (cd "$2" && "$bin" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
        >> "$ab_dir/$1.jsonl"
}

for i in "${!seeds[@]}"; do
    for w in "${workloads[@]}"; do
        if [ $((i % 2)) -eq 0 ]; then
            run_side parent "$parent_tree" "$w" "${seeds[$i]}"
            run_side change "$here" "$w" "${seeds[$i]}"
        else
            run_side change "$here" "$w" "${seeds[$i]}"
            run_side parent "$parent_tree" "$w" "${seeds[$i]}"
        fi
    done
done

echo "results in $ab_dir (remove the worktree with: git worktree remove $parent_tree)"
python3 "$here/perfbench/compare.py" "$ab_dir/parent.jsonl" "$ab_dir/change.jsonl"
