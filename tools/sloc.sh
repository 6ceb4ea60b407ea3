#!/bin/sh
# Non-comment, non-blank source lines of src/ and bench/ (the count the
# ROADMAP tracks): each C++ file goes through the preprocessor's
# comment stripping only (`g++ -fpreprocessed -dD -E -P`), then blank
# lines are dropped. Prints one "lines path" row per file and a total.
#
#   tools/sloc.sh            per file, then the total
#   tools/sloc.sh --total    the total alone
set -eu
cd "$(dirname "$0")/.."
count() {
    find src bench -type f \( -name '*.cc' -o -name '*.hh' -o -name '*.h' \
        -o -name '*.cpp' \) | LC_ALL=C sort | while read -r f; do
        n=$(g++ -fpreprocessed -dD -E -P "$f" 2>/dev/null |
            grep -cv '^[[:space:]]*$' || true)
        echo "$n $f"
    done
}
if [ "${1:-}" = "--total" ]; then
    count | awk '{ t += $1 } END { print t }'
else
    count | awk '{ t += $1; print } END { print t " total" }'
fi
