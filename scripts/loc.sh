#!/usr/bin/env bash
# Non-test source lines per crate under crates/*/src, and their total.
#
# Every line counts except unit-test modules: a `#[cfg(test)]` line
# directly followed by a `mod … {` line, through that module's closing
# brace (the first later line that is `}` at the `mod` line's indent,
# which rustfmt guarantees). A `#[cfg(test)]` that guards anything else
# (an import, say) counts like code, and so does anything after a test
# module. Blank and comment lines count like code.
#
# Usage: scripts/loc.sh [REV [REV2]]
#
# With no argument it counts the working tree. With a git revision it
# counts that revision's crates/ tree, extracted with `git archive` into
# a temporary directory that is removed on exit. With two revisions it
# prints, per crate, REV's count, REV2's count and their difference
# (REV2 minus REV), so a change's line delta takes one command:
# `scripts/loc.sh HEAD~1 HEAD`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 2 ]; then
    echo "usage: scripts/loc.sh [REV [REV2]]" >&2
    exit 2
fi

tmp=""
trap '[ -z "$tmp" ] || rm -rf "$tmp"' EXIT

# extract REV DIR: writes REV's crates/ tree under DIR.
extract() {
    local tree
    tree="$(git rev-parse --verify --quiet "$1^{tree}")" || {
        echo "loc.sh: not a git revision: $1" >&2
        exit 2
    }
    mkdir -p "$2"
    git archive "$tree" crates | tar -x -C "$2"
}

count_file() {
    awk '
        shut != "" { if ($0 == shut) shut = ""; next }
        pending && /^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]].*\{[[:space:]]*$/ {
            match($0, /^[[:space:]]*/)
            shut = substr($0, 1, RLENGTH) "}"
            pending = 0
            next
        }
        pending { n++; pending = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        { n++ }
        END { print n + pending }
    ' "$1"
}

# count ROOT: one `crate lines` line per crate under ROOT/crates, then
# `total lines`.
count() {
    local total=0 dir crate lines f
    for dir in "$1"/crates/*/src; do
        crate="$(basename "$(dirname "$dir")")"
        lines=0
        while IFS= read -r f; do
            lines=$((lines + $(count_file "$f")))
        done < <(find "$dir" -name '*.rs' | sort)
        echo "$crate $lines"
        total=$((total + lines))
    done
    echo "total $total"
}

case $# in
0)
    count . | while read -r crate lines; do printf '%-12s %6d\n' "$crate" "$lines"; done
    ;;
1)
    tmp="$(mktemp -d)"
    extract "$1" "$tmp"
    count "$tmp" | while read -r crate lines; do printf '%-12s %6d\n' "$crate" "$lines"; done
    ;;
2)
    tmp="$(mktemp -d)"
    extract "$1" "$tmp/a"
    extract "$2" "$tmp/b"
    count "$tmp/a" > "$tmp/a.txt"
    count "$tmp/b" > "$tmp/b.txt"
    # A crate present in only one revision counts 0 lines in the other;
    # the total stays last.
    awk -v a="$1" -v b="$2" '
        NR == FNR { old[$1] = $2; if ($1 != "total") order[++n] = $1; next }
        { new[$1] = $2; if ($1 != "total" && !($1 in old)) order[++n] = $1 }
        END {
            printf "%-12s %8s %8s %7s\n", "crate", substr(a, 1, 8), substr(b, 1, 8), "delta"
            order[++n] = "total"
            for (i = 1; i <= n; i++) {
                c = order[i]
                printf "%-12s %8d %8d %+7d\n", c, old[c], new[c], new[c] - old[c]
            }
        }
    ' "$tmp/a.txt" "$tmp/b.txt"
    ;;
esac
