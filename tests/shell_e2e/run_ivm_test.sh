#!/usr/bin/env bash
# End-to-end IVM shell test: drives the materialized-view and mutation
# commands (view / views / insert / delete / setprob) through pvcdb_shell
# at 1 and 2 shards and diffs the transcript against expected_ivm.txt. The
# `view pricey` outputs after `shards 2` (the engine, views included,
# rebuilt from its captured state) and after `shards 1` must match the
# 1-shard ones line for line -- the CLI-level bit-identity check for
# incrementally maintained views.
#
# Usage: run_ivm_test.sh <path-to-pvcdb_shell> <repo-root>
set -u

shell_bin="$1"
src_dir="$2"
here="$src_dir/tests/shell_e2e"
cd "$src_dir" || exit 2

actual="$("$shell_bin" < "$here/input_ivm.txt")"
expected="$(cat "$here/expected_ivm.txt")"

if [ "$actual" != "$expected" ]; then
  echo "shell transcript differs from expected:"
  diff -u <(printf '%s\n' "$expected") <(printf '%s\n' "$actual")
  exit 1
fi
echo "ivm shell transcript matches"

# Six `view <name>` prints produce a probability block each: pricey and
# bykind at 1 shard, both again under shards 2, pricey after the sharded
# insert, and pricey after shards 1. Update this count together with
# input_ivm.txt / expected_ivm.txt.
blocks="$(printf '%s\n' "$actual" | grep -c '^P\[row 0\]')"
if [ "$blocks" -ne 6 ]; then
  echo "expected 6 view outputs with probabilities, saw $blocks"
  exit 1
fi
exit 0
