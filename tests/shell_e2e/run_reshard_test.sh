#!/usr/bin/env bash
# Resharding rebuilds from the engine's own state, not from disk: the shell
# loads a copy of data/items.csv, the copy is deleted as soon as the shell
# acknowledges the load, and after an insert, a view and `shards 2` the
# table must still hold all 6 rows, the insert and the view. The shell runs
# as a coprocess so the deletion waits for the acknowledgement, and every
# read carries a timeout, so a shell that does not flush its replies fails
# the test instead of hanging it. The transcript after the load is diffed
# against expected_reshard.txt.
#
# Usage: run_reshard_test.sh <path-to-pvcdb_shell> <repo-root>
set -u

shell_bin="$1"
src_dir="$2"
here="$src_dir/tests/shell_e2e"
cd "$src_dir" || exit 2

scratch="$(mktemp -d)" || exit 2
shell_pid=""
cleanup() {
  [ -n "$shell_pid" ] && kill -9 "$shell_pid" 2>/dev/null
  rm -rf "$scratch"
}
trap cleanup EXIT
cp data/items.csv "$scratch/items.csv" || exit 2

coproc SHELL_PROC { exec "$shell_bin"; }
shell_pid="$SHELL_PROC_PID"
# Duplicates: bash closes the coprocess's own descriptors once it exits,
# which may be before its last replies have been read.
exec {in_fd}>&"${SHELL_PROC[1]}" {out_fd}<&"${SHELL_PROC[0]}"

echo "load items $scratch/items.csv" >&"$in_fd"
if ! IFS= read -r -t 30 line <&"$out_fd"; then
  echo "no reply to the load within 30 s"
  exit 1
fi
if [ "$line" != "loaded 5 rows into items" ]; then
  echo "unexpected reply to the load: $line"
  exit 1
fi
rm "$scratch/items.csv"

cat >&"$in_fd" <<'EOF'
insert items tool drill 1450 0.7
view pricey SELECT * FROM items WHERE price >= 1000
shards 2
tables
view pricey
SELECT item, price FROM items
quit
EOF

# read fails at the end of input (status 1) or on a timeout (status > 128).
actual=""
while true; do
  IFS= read -r -t 30 line <&"$out_fd"
  read_status=$?
  [ "$read_status" = 0 ] || break
  actual+="$line"$'\n'
done
if [ "$read_status" -gt 128 ]; then
  echo "shell stopped replying after:"
  printf '%s' "$actual"
  exit 1
fi

expected="$(cat "$here/expected_reshard.txt")"
if [ "${actual%$'\n'}" != "$expected" ]; then
  echo "reshard transcript differs from expected:"
  diff -u <(printf '%s\n' "$expected") <(printf '%s' "$actual")
  exit 1
fi
echo "reshard kept the table, the insert and the view"
exit 0
