#!/usr/bin/env sh
# CI entry point: build and vet the root module and the perfbench module,
# and test (race detector on) the root module.
# Usage: scripts/ci.sh [extra go test args]
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

# perfbench/ is a module of its own (replace edgecachegroups => ../), so
# the root build above never compiles it; build it here so an internal
# API change cannot break the benchmark harness unnoticed.
echo "==> (cd perfbench && go build ./...)"
(cd perfbench && go build -o /dev/null ./...)

echo "==> go vet ./..."
go vet ./...

echo "==> (cd perfbench && go vet ./...)"
(cd perfbench && go vet ./...)

echo "==> gofmt drift"
drift=$(gofmt -l .)
if [ -n "$drift" ]; then
	echo "unformatted files:" >&2
	echo "$drift" >&2
	exit 1
fi

echo "==> ecglint ./..."
go run ./cmd/ecglint ./...

echo "==> ecglint -audit ./..."
go run ./cmd/ecglint -audit ./...

echo "==> go test -race ./..."
go test -race "$@" ./...

echo "ci: OK"
