#!/usr/bin/env bash
# Non-test source lines per crate under crates/*/src, and their total.
#
# A file counts up to its unit-test module: the first `#[cfg(test)]`
# line directly followed by a `mod` line. A `#[cfg(test)]` that guards
# anything else (an import, say) does not end the count. Blank and
# comment lines count like code.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count_file() {
    awk '
        cut { next }
        pending && /^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]]/ { cut = 1; next }
        pending { n++; pending = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        { n++ }
        END { if (pending && !cut) n++; print n + 0 }
    ' "$1"
}

total=0
for dir in crates/*/src; do
    crate="$(basename "$(dirname "$dir")")"
    lines=0
    while IFS= read -r f; do
        lines=$((lines + $(count_file "$f")))
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
