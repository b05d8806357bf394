#!/bin/sh
# Counts the non-test code lines of every crate under crates/*/src: lines
# that are neither blank nor `//` comments, with each `#[cfg(test)]` item
# (an attribute line, then everything up to the brace that closes the item
# or the `;` that ends it) left out. Prints one `<crate> <lines>` row per
# crate and a `total` row.
#
# Usage: scripts/count-lines.sh [repo-root]   (default: the current directory)
set -eu
cd "${1:-.}"
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { skip = 0; depth = 0; opened = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (skip) {
                opens = gsub(/\{/, "{", line)
                closes = gsub(/\}/, "}", line)
                depth += opens - closes
                if (opens > 0) opened = 1
                if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) skip = 0
                next
            }
            if (line == "#[cfg(test)]") { skip = 1; depth = 0; opened = 0; next }
            if (line == "" || line ~ /^\/\//) next
            count++
        }
        END { print count + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
