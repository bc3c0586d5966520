#!/usr/bin/env bash
# Runs the command-line walkthrough of README.md in a temporary copy of
# tests/fixtures and checks each command's exit code: 0 for every step, 2 for
# the failing chase at the end, and "equivalent" printed by `equiv`.
#
# The arguments are the command that runs tdx, for example:
#
#   bash tests/readme_walkthrough.sh tdx
#   PYTHONPATH=src bash tests/readme_walkthrough.sh python -c "from tdx.cli import main; main()"
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
    else
        echo "ok: tdx $* (exit $got)"
    fi
}

expect 0 normalize -i fig1.json -o normalized.json
expect 0 sem -i fig1.json --horizon 13 -o abstract.json
expect 0 chase -m example1.tdx -i fig1.json -o solution.json
expect 0 chase -m example1.tdx -i abstract.json -o asolution.json
expect 0 equiv -a solution.json -b asolution.json --horizon 13
if [ "$(cat stdout.txt)" != "equivalent" ]; then
    echo "FAIL: equiv printed '$(cat stdout.txt)', expected 'equivalent'" >&2
    failed=1
fi
expect 0 query -m example1.tdx -i solution.json -q positions -o answers.json
expect 0 certain -m example1.tdx -i fig1.json -q positions -o certain.json
expect 2 chase -m example3.tdx -i example3_source.json -o failure.json
exit $failed
