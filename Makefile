# Convenience entry points mirroring the CI jobs (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint bench bench-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full-module race pass; -count=1 defeats the cache so seeded concurrency
# tests explore fresh schedules every run.
race:
	$(GO) test -race -count=1 -timeout 20m ./...

# go vet plus the project invariant analyzers (cmd/deltavet).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/deltavet ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench/ is a nested module the targets above skip: its own smoke test runs
# every workload once at a small size and checks it against BENCHMARK.json.
bench-smoke:
	$(GO) test -C bench ./...
