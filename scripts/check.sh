#!/bin/sh
# One gate for the repo: build, vet (standard + project-specific), format,
# and race-test the concurrency-bearing packages. CI and pre-commit both run
# exactly this script, so "checks passed" here means the same thing there.
#
# SKIP_WACO_VET=1 skips the project analyzers: CI runs them in a dedicated
# static-analysis job (the escape-analysis gate compiles the annotated
# packages with inlining off, which deserves its own cache and parallelism),
# so the check job can skip the duplicate run. Local runs keep the default.
set -eu
cd "$(dirname "$0")/.."

echo "==> go build"
go build ./...

echo "==> go vet"
go vet ./...

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

if [ "${SKIP_WACO_VET:-0}" = "1" ]; then
	echo "==> waco-vet (skipped: SKIP_WACO_VET=1)"
else
	echo "==> waco-vet"
	go run ./cmd/waco-vet ./...
fi

# Race-test every package that actually bears concurrency, derived from the
# import graph instead of a hand-maintained list (which had gone stale and
# silently skipped packages). Derived from ./... — not ./internal/... — so
# the concurrency-bearing cmd/* entry points (waco-serve's drain) are
# covered too; those reach sync only through internal/serve, so bearing
# propagates to fixpoint through module-internal imports: a package bears
# concurrency if it (or its tests) imports sync or sync/atomic directly, or
# imports a module package that bears it.
race_pkgs=$(go list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}}' ./... |
	awk -F': ' '
	{ pkg[$1] = $2 }
	END {
		changed = 1
		while (changed) {
			changed = 0
			for (p in pkg) {
				if (bear[p]) continue
				n = split(pkg[p], imp, " ")
				for (i = 1; i <= n; i++)
					if (imp[i] == "sync" || imp[i] == "sync/atomic" || ((imp[i] in pkg) && bear[imp[i]])) {
						bear[p] = 1
						changed = 1
						break
					}
			}
		}
		for (p in pkg) if (bear[p]) print p
	}' | sort)
echo "==> go test -race:" $race_pkgs
# shellcheck disable=SC2086 — the package list is intentionally word-split.
go test -race $race_pkgs

echo "checks passed"
