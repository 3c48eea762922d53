#!/bin/sh
# Every artifact output flag pointing under a missing directory must be
# rejected up front: exit 2, a message naming the path on stderr, and
# nothing on stdout (no results table, no run).
#
#   check_artifact_paths.sh MISSING_DIR BINARY [BINARY ...]
#
# A BINARY argument may carry extra flags ("bench_main_bw --scale=test").
missing=$1
shift
[ ! -e "$missing" ] || { echo "$missing exists"; exit 1; }
status=0
for bin in "$@"; do
  for flag in report-json explain-out trace-out telemetry-out; do
    path="$missing/out.json"
    # shellcheck disable=SC2086  # $bin is a command plus its flags
    out=$($bin "--$flag=$path" 2>"$missing.err")
    code=$?
    if [ "$code" -ne 2 ] || [ -n "$out" ] || ! grep -q "$path" "$missing.err"
    then
      echo "FAIL: $bin --$flag=$path exited $code; stdout: $out"
      cat "$missing.err"
      status=1
    fi
  done
done
rm -f "$missing.err"
exit $status
