#!/usr/bin/env bash
# End-to-end durability shell test: two separate pvcdb_shell processes
# share one on-disk store. The first loads a table, registers a chain view
# and a PROD aggregate view, `open`s the store (snapshot generation 0),
# then mutates, registers a second PROD view and reshards THROUGH the WAL,
# and inserts once more after that. The second `open`s the same store in a
# fresh process: recovery must decode the PROD view from the snapshot,
# replay the whole WAL tail (the PROD view record, the `shards 2` topology
# record and the insert after them), serve the views bit-identically,
# survive a `save` checkpoint rotation, and reshard back to 1; a second
# `shards 1` must then log nothing (wal_records stays 1).
#
# The store path differs per run, so inputs carry a @DIR@ placeholder that
# is substituted in, and transcripts are normalized back before diffing.
#
# Usage: run_durability_test.sh <path-to-pvcdb_shell> <repo-root>
set -u

shell_bin="$1"
src_dir="$2"
here="$src_dir/tests/shell_e2e"
cd "$src_dir" || exit 2

scratch="$(mktemp -d)" || exit 2
trap 'rm -rf "$scratch"' EXIT
store="$scratch/store"

run_invocation() {
  sed "s|@DIR@|$store|g" "$1" | "$shell_bin" | sed "s|$store|@DIR@|g"
}

for n in 1 2; do
  actual="$(run_invocation "$here/input_durable_$n.txt")"
  expected="$(cat "$here/expected_durable_$n.txt")"
  if [ "$actual" != "$expected" ]; then
    echo "durability shell transcript $n differs from expected:"
    diff -u <(printf '%s\n' "$expected") <(printf '%s\n' "$actual")
    exit 1
  fi
  # The durable prefix must survive the process boundary bit-identically:
  # every `view pricey` probability block in both transcripts is the same
  # state, so all P-lines must agree.
  if [ "$n" = 1 ]; then
    probs_1="$(printf '%s\n' "$actual" | grep '^P\[row')"
  else
    probs_2="$(printf '%s\n' "$actual" | grep '^P\[row' | head -5)"
  fi
done

if [ "$probs_1" != "$probs_2" ]; then
  echo "view probabilities changed across the process boundary:"
  diff -u <(printf '%s\n' "$probs_1") <(printf '%s\n' "$probs_2")
  exit 1
fi

# The store must hold exactly one snapshot + WAL generation after the
# checkpoint in invocation 2 rotated away generation 0.
leftover="$(ls "$store" | sort)"
wanted="$(printf 'snapshot-00000001\nwal-00000001.log')"
if [ "$leftover" != "$wanted" ]; then
  echo "store contents after checkpoint rotation unexpected:"
  printf '%s\n' "$leftover"
  exit 1
fi

echo "durability shell transcripts match"
exit 0
