#!/usr/bin/env bash
# Runs the command-line walkthrough of README.md in a temporary copy of
# tests/fixtures and checks each command's exit code: 0 for every step, 1 for
# the refused `sem` of an abstract instance, 2 for the failing chase at the
# end, and "equivalent" printed by each `equiv`.  The second `equiv` compares
# the solution with a copy whose null labels `sed` renames one to one, so
# the two views differ and are matched as twins, not by the identity map.
# One `sem` step writes to /dev/null, a device, which must not be truncated
# as a file is.  No step may print a traceback, since an uncaught exception
# also exits 1.
#
# The arguments are the command that runs tdx, for example:
#
#   bash tests/readme_walkthrough.sh tdx
#   PYTHONPATH="$PWD/src" bash tests/readme_walkthrough.sh python -c "from tdx.cli import main; main()"
set -u
if [ $# -eq 0 ]; then
    echo "usage: $0 TDX-COMMAND..." >&2
    exit 64
fi
tdx=("$@")
fixtures=$(cd "$(dirname "$0")/fixtures" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp "$fixtures"/* "$work"
cd "$work" || exit 1
failed=0

expect() {  # the expected exit code, then the arguments of one tdx command
    local want=$1
    shift
    "${tdx[@]}" "$@" > stdout.txt 2> stderr.txt
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: tdx $* exited $got, expected $want" >&2
        cat stderr.txt >&2
        failed=1
    elif grep -q Traceback stderr.txt; then
        echo "FAIL: tdx $* printed a traceback" >&2
        cat stderr.txt >&2
        failed=1
    else
        echo "ok: tdx $* (exit $got)"
    fi
}

printed() {  # what the last tdx command must have printed
    if [ "$(cat stdout.txt)" != "$1" ]; then
        echo "FAIL: tdx printed '$(cat stdout.txt)', expected '$1'" >&2
        failed=1
    fi
}

expect 0 normalize -i fig1.json -o normalized.json
expect 0 sem -i fig1.json --horizon 13 -o abstract.json
expect 0 sem -i fig1.json --horizon 13 -o /dev/null
expect 0 chase -m example1.tdx -i fig1.json -o solution.json
expect 0 chase -m example1.tdx -i abstract.json -o asolution.json
expect 0 equiv -a solution.json -b asolution.json --horizon 13
printed equivalent
sed 's/"null": "/"null": "x/' solution.json > relabeled.json
expect 0 equiv -a solution.json -b relabeled.json --horizon 13
printed equivalent
expect 0 query -m example1.tdx -i solution.json -q positions -o answers.json
expect 0 certain -m example1.tdx -i fig1.json -q positions -o certain.json
expect 1 sem -i asolution.json -o x.json
expect 2 chase -m example3.tdx -i example3_source.json -o failure.json
exit $failed
