#!/bin/sh
# Usage: expect_reject.sh PATTERN COMMAND [ARGS...]
#
# Runs COMMAND and succeeds only if it is rejected cleanly: a non-zero
# exit status below 128 (a crash or abort does not count as a
# rejection) and output (stdout + stderr) matching the extended
# regular expression PATTERN. Used by ctest to pin input validation.
pattern=$1
shift
out=$("$@" 2>&1)
rc=$?
if [ "$rc" -eq 0 ] || [ "$rc" -ge 128 ]; then
    echo "expect_reject: '$*' exited $rc (want a clean non-zero exit)" >&2
    echo "$out" >&2
    exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq "$pattern"; then
    echo "expect_reject: output of '$*' does not match /$pattern/:" >&2
    echo "$out" >&2
    exit 1
fi
echo "expect_reject: '$*' rejected (exit $rc)"
