#!/usr/bin/env sh
# Prints the number of product lines: non-blank lines in crates/*/src
# outside `#[cfg(test)]` items, leaving out the `simulation` (figure
# harness) and `bench` crates.
#
# A `#[cfg(test)]` item is skipped from its attribute through the brace
# that closes it, or through its `;` when it has no body. Braces are
# counted per character, so a brace inside a string or a comment of a
# test item can skew the count; the number is a trend to watch, not a
# gate.
#
# Usage: scripts/product_lines.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' \
    -not -path 'crates/simulation/*' -not -path 'crates/bench/*' |
    LC_ALL=C sort |
    xargs awk '
        FNR == 1 { skipping = 0 }
        !skipping && /^[ \t]*#\[cfg\(test\)\]/ {
            skipping = 1; depth = 0; opened = 0
            sub(/^[ \t]*#\[cfg\(test\)\]/, "")
        }
        skipping {
            line = $0
            opens = gsub(/\{/, "", line)
            closes = gsub(/\}/, "", line)
            depth += opens - closes
            if (opens > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[ \t]*$/)) skipping = 0
            next
        }
        /[^ \t]/ { count++ }
        END { print count + 0 }
    '
