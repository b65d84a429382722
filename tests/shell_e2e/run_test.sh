#!/usr/bin/env bash
# End-to-end shell test: pipes tests/shell_e2e/input.txt through
# pvcdb_shell from the repository root (so data/items.csv resolves) and
# diffs the transcript against expected.txt. The `threads` line prints the
# machine's hardware thread count; it is normalised before the diff. The
# SELECT outputs at 1 and 2 shards must match line for line -- this doubles
# as a CLI-level bit-identity check.
#
# Usage: run_test.sh <path-to-pvcdb_shell> <repo-root>
set -u

shell_bin="$1"
src_dir="$2"
here="$src_dir/tests/shell_e2e"
cd "$src_dir" || exit 2

actual="$("$shell_bin" < "$here/input.txt" \
  | sed -E 's/; [0-9]+ hardware threads/; N hardware threads/')"
expected="$(cat "$here/expected.txt")"

if [ "$actual" != "$expected" ]; then
  echo "shell transcript differs from expected:"
  diff -u <(printf '%s\n' "$expected") <(printf '%s\n' "$actual")
  exit 1
fi
echo "shell transcript matches"

# Five SELECT blocks: the WHERE-only query (distributed plan under
# shards=2) and the GROUP BY query, each run at 1 shard and at 2, plus the
# re-run after `shards 1` -- all asserted identical via expected.txt.
selects="$(printf '%s\n' "$actual" | grep -c '^P\[row 0\]')"
if [ "$selects" -ne 5 ]; then
  echo "expected 5 SELECT outputs, saw $selects"
  exit 1
fi
exit 0
