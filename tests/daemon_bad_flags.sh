#!/bin/sh
# Numeric flags of thord, thor-router and thorcli are parsed strictly: a
# value that does not parse as a whole, or lands out of range, must exit 2
# with usage instead of being read as 0 (`--cache abc` would disable the
# template cache, `--listen abc` would bind an ephemeral port,
# `send --timeout-ms abc` would give a 0 ms deadline). A good value must
# still be accepted.
#
# usage: daemon_bad_flags.sh THORD THOR_ROUTER WORKDIR THORCLI

THORD=$1
ROUTER=$2
WORK=$3
THORCLI=$4
fail=0

rm -rf "$WORK" || exit 1
mkdir -p "$WORK" || exit 1

# expect CODE CMD...: runs CMD with stdin closed and a 10 s cap (an
# accepted --listen would otherwise serve forever).
expect() {
  want=$1
  shift
  timeout 10 "$@" </dev/null >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*"
    fail=1
  fi
}

for flag in "--cache abc" "--cache 5x" "--cache -1" "--listen abc" \
    "--listen 70000" "--relearn-miss-rate x" "--relearn-miss-rate 1.5" \
    "--fault-rate nan" "--batch 0" "--threads ''" "--seed 12abc" \
    "--deadline-ms 1e999" "--anti-entropy-ms 0"; do
  eval expect 2 "\"$THORD\"" --store "\"$WORK/store\"" $flag
done
for flag in "--listen abc" "--batch -1" "--vnodes 0" "--retries 2.5" \
    "--halfopen-ms fast" "--eject-after ''"; do
  eval expect 2 "\"$ROUTER\"" --shard 127.0.0.1:1 $flag
done
# thorcli: each command line is otherwise runnable, so only the bad value
# can make it exit 2.
for args in "probe --sites abc" "probe --sites 1 --queries 3x" \
    "probe --sites 1 --queries 2 --drift-seed 12abc" \
    "probe --sites 1 --queries 2 --drift-rate 1.5" \
    "probe --sites 1 --queries 2 --drift-ab nan" \
    "probe --sites 1 --queries 2 --epoch -1" \
    "send --port 80x" "send --port 1 --timeout-ms abc" \
    "fetch --port 80x --path /" "fetch --port 1 --path / --timeout-ms abc" \
    "eval --sites 1x" "eval --sites 1 --fault-rate x" \
    "eval --sites 1 --retry-budget -1" "eval --sites 1 --deadline-ms fast" \
    "eval --sites 1 --seed 5x"; do
  eval expect 2 "\"$THORCLI\"" $args --out "\"$WORK/probe\""
done

# Good values still parse: an empty stdio stream exits 0.
expect 0 "$THORD" --store "$WORK/store" --cache 8 --batch 4 \
  --relearn-miss-rate 0.25 --deadline-ms 1.5e3 --seed 77

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "OK: bad daemon flags exit 2, good ones parse"
