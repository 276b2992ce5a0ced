#!/bin/sh
# Non-test Go lines per internal/* package (subpackages included), for
# the whole repo and for the repo outside the frozen benchmark/ (the
# figure the code-size gate reads), then the assembly total — the
# figures a change reports its LoC delta from.
set -eu
cd "$(dirname "$0")/.."
count() { find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }
for pkg in internal/*/; do
	printf '%7d  %s\n' "$(count "$pkg")" "${pkg%/}"
done
printf '%7d  total (all non-test .go files)\n' "$(count .)"
printf '%7d  total outside benchmark/\n' "$(count . -path ./benchmark -prune -o)"
printf '%7d  assembly (all .s files)\n' "$(find . -name '*.s' -exec cat {} + | wc -l)"
