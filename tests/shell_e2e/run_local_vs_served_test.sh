#!/usr/bin/env bash
# One command interpreter: pipes input_ivm.txt, without its `shards` lines
# (the local shell's own command, which a server rejects), through three
# routes and requires byte-identical transcripts, P-lines included:
#   1. the local pvcdb_shell;
#   2. pvcdb_shell --connect to pvcdb_server --in-process --shards 1;
#   3. pvcdb_shell --connect to pvcdb_server --shards 2 (worker processes).
#
# Usage: run_local_vs_served_test.sh <pvcdb_server> <pvcdb_shell> <repo-root>
set -u

server_bin="$1"
shell_bin="$2"
src_dir="$3"
here="$src_dir/tests/shell_e2e"
cd "$src_dir" || exit 2

scratch="$(mktemp -d)" || exit 2
inproc_pid=""
workers_pid=""
cleanup() {
  [ -n "$inproc_pid" ] && kill -9 "$inproc_pid" 2>/dev/null
  [ -n "$workers_pid" ] && kill -9 "$workers_pid" 2>/dev/null
  rm -rf "$scratch"
}
trap cleanup EXIT

grep -v '^shards' "$here/input_ivm.txt" > "$scratch/input.txt"

"$server_bin" --listen "$scratch/inproc.sock" --in-process --shards 1 \
              --quiet &
inproc_pid=$!
"$server_bin" --listen "$scratch/workers.sock" --shards 2 --quiet &
workers_pid=$!

# The shell client retries the connect, so no readiness wait is needed.
"$shell_bin" < "$scratch/input.txt" > "$scratch/local.txt" || exit 1
"$shell_bin" --connect "$scratch/inproc.sock" < "$scratch/input.txt" \
  > "$scratch/inproc.txt" || exit 1
"$shell_bin" --connect "$scratch/workers.sock" < "$scratch/input.txt" \
  > "$scratch/workers.txt" || exit 1

status=0
for route in inproc workers; do
  if ! diff -u "$scratch/local.txt" "$scratch/$route.txt"; then
    echo "local shell and --connect ($route server) transcripts differ"
    status=1
  fi
done
if ! grep -q '^P\[row' "$scratch/local.txt"; then
  echo "transcript unexpectedly carries no probability lines:"
  cat "$scratch/local.txt"
  status=1
fi

# Both servers shut down cleanly on request.
printf 'shutdown\n' | "$shell_bin" --connect "$scratch/inproc.sock" > /dev/null
wait "$inproc_pid"
inproc_status=$?
inproc_pid=""
printf 'shutdown\n' | "$shell_bin" --connect "$scratch/workers.sock" > /dev/null
wait "$workers_pid"
workers_status=$?
workers_pid=""
if [ "$inproc_status" != 0 ] || [ "$workers_status" != 0 ]; then
  echo "server exit statuses: inproc=$inproc_status workers=$workers_status"
  status=1
fi

[ "$status" = 0 ] && echo "local and served transcripts are byte-identical"
exit "$status"
