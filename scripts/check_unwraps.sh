#!/usr/bin/env bash
# Count the lines calling `unwrap()` or `expect(` in library and binary
# sources (`crates/*/src`, `src/`) and fail when the count grows past the
# recorded ceiling.
#
# A panic in library code is a crash the caller cannot handle: the engines
# report every input, IO and fabric failure as a typed `SimError`, and a
# new `unwrap()` is usually a place where one was forgotten. The count
# covers in-file test modules too; tests under `tests/` and `benches/` are
# not counted.
#
# When a change removes calls, lower MAX to the new count in the same
# change so the ceiling ratchets down. Raising it needs a reason in the
# change description.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX=239

count="$(grep -rE 'unwrap\(\)|expect\(' crates/*/src src | wc -l)"
if [ "$count" -gt "$MAX" ]; then
    echo "unwrap()/expect( lines grew: $count > $MAX (crates/*/src, src/)" >&2
    echo "return a typed error instead, or justify raising MAX in $0" >&2
    exit 1
fi
echo "unwrap()/expect( check passed: $count lines (ceiling $MAX)"
