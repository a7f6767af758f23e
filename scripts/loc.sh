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
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

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
