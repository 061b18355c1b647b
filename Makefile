# Convenience entry points mirroring the CI jobs (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint bench-smoke bench-compare mutate

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

# The mutation kill matrix (mutate/, a nested module): every mutant in
# mutate/mutants.go against deltavet, the mutated package's tests, the same
# under -race, and the chaos suite. Rewrites mutate/matrix.json and
# mutate/matrix.md; about 40 minutes on 2 CPUs. The tree is copied to
# .mutate_build/ first, so the checkout is never edited.
mutate:
	cd mutate && $(GO) run . -out matrix.json

# bench/ is a nested module the targets above skip: its own smoke test runs
# every workload once at a small size and checks it against BENCHMARK.json.
bench-smoke:
	$(GO) test -C bench ./...

# The before/after of a change on the gated metrics:
#
#	make bench-compare REF=<git ref> [SEED=1] [ROUNDS=2]
#
# REF is checked out as a git worktree under .bench_build/ and built there by
# its own bench/run.sh; the whole benchmark then runs on it and on this tree
# alternately (the side that goes first alternates too), ROUNDS times each, so
# both sides sit in the same stretch of host noise. `bench --compare` prints
# the verdicts from the two --out files. About 100 s per run.
SEED ?= 1
ROUNDS ?= 2
bench-compare:
	@test -n "$(REF)" || { echo "usage: make bench-compare REF=<git ref> [SEED=1] [ROUNDS=2]"; exit 2; }
	rm -rf .bench_build/ref .bench_build/compare
	git worktree prune
	git worktree add --detach .bench_build/ref $(REF)
	mkdir -p .bench_build/compare
	ref() { bash .bench_build/ref/bench/run.sh --workload all --seed $(SEED) --out $(CURDIR)/.bench_build/compare/ref.json; }; \
	change() { bash bench/run.sh --workload all --seed $(SEED) --out .bench_build/compare/change.json; }; \
	for i in $$(seq $(ROUNDS)); do \
		if [ $$((i % 2)) = 1 ]; then ref && change; else change && ref; fi || exit 1; \
	done
	git worktree remove --force .bench_build/ref
	.bench_build/bench --compare .bench_build/compare/ref.json .bench_build/compare/change.json
