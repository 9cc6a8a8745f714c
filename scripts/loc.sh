#!/bin/sh
# Count the code lines of Rust source files.
#
#   sh scripts/loc.sh FILE...
#
# For each file, prints the lines before its first `#[cfg(test)]` that are
# neither blank nor `//` comments (doc comments included), then a total.
# Unit-test modules sit at the end of a file, so the count is the
# production code without its tests and comments.
[ $# -gt 0 ] || { echo "usage: sh scripts/loc.sh FILE..." >&2; exit 2; }
total=0
for f in "$@"; do
    n=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$f") || exit 1
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
