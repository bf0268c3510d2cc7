#!/usr/bin/env bash
# Checks that every `go test -run <regex> <packages>` in the CI workflow
# selects at least one test, so a renamed or deleted test cannot leave a
# CI step silently running nothing. Steps that pass -bench use -run to
# select no tests on purpose and are skipped.
#
#   bash scripts/check-ci-run.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
fail=0
while IFS= read -r line; do
    case $line in *-bench*) continue ;; esac
    re=$(sed -E "s/.*-run ('([^']*)'|([^ ]+)).*/\2\3/" <<<"$line")
    read -ra pkgs <<<"$(grep -oE '(^| )\./[^ ]+' <<<"$line" | tr '\n' ' ')"
    n=$(go test -list "$re" "${pkgs[@]}" | grep -cE '^(Test|Benchmark|Fuzz|Example)') || n=0
    if [ "$n" -eq 0 ]; then
        echo "FAIL: -run '$re' selects no test in ${pkgs[*]}"
        fail=1
    else
        echo "ok: -run '$re' selects $n tests in ${pkgs[*]}"
    fi
done < <(grep -E 'go test .*-run ' "$wf")
exit $fail
