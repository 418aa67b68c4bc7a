GO ?= go

# Bare `make` keeps running the full gate, as before `help` moved to the
# top of the file.
.DEFAULT_GOAL := ci

.PHONY: help ci fmt tidy vet staticcheck lint build test race fuzz bench bench-compile bench-snapshot cover golden docs

# The perf-snapshot file for the current PR and the packages it records.
# Bump SNAPSHOT per PR (BENCH_7.json, ...) so the repo keeps the
# trajectory instead of overwriting it.
SNAPSHOT ?= BENCH_31.json
SNAPSHOT_PKGS = ./internal/sweep ./internal/work ./internal/profile ./internal/grid ./internal/obs ./internal/core ./internal/dist/journal ./internal/dist ./internal/opt

# help is self-maintaining: annotate a target with a trailing `## text`
# and it appears here.
help: ## list the Makefile verbs and what they do
	@grep -E '^[a-zA-Z_-]+:.*?## ' $(MAKEFILE_LIST) | awk 'BEGIN {FS = ":.*?## "}; {printf "  %-14s %s\n", $$1, $$2}'

# ci is the gate: formatting, module tidiness, vet, staticcheck, the
# repository's own analyzer suite, build, race-enabled tests (every
# example's stdout among their goldens), bounded fuzzing runs, and a
# one-iteration pass over every benchmark as a compile-and-run check —
# the same chain .github/workflows/ci.yml runs, so a green `make ci`
# means a green CI run. (CI's benchmark-regression gate needs a
# merge-base to diff against and only runs on pull requests; see
# .github/workflows/ci.yml.)
ci: fmt tidy vet staticcheck lint build race fuzz bench-compile ## the full CI gate (fmt + tidy + vet + staticcheck + repolint + build + race tests + fuzz + bench compile)

# fmt fails listing the files gofmt would rewrite, same as the CI step.
fmt: ## fail when gofmt would change any file
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# tidy checks go.mod/go.sum are exactly what `go mod tidy` would write
# (-diff needs Go 1.23+; it prints the diff and exits non-zero on drift).
tidy: ## fail when go.mod/go.sum are not tidy
	$(GO) mod tidy -diff

# staticcheck runs the linter when it is installed (CI installs it; local
# boxes may not have it). Findings fail the target; only a missing binary
# is skipped.
staticcheck: ## lint with staticcheck when installed (CI always runs it)
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# perfbench/ is a separate module (replace repro => ../) that root ./...
# never compiles; vetting it catches changes to names the benchmark
# imports.
vet: ## go vet every package, the benchmark module included
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# lint runs cmd/repolint, the repository's own go/analysis-style suite
# (internal/analysis): the determinism and architecture invariants —
# fan-out, map order, clocks, float formatting, context flow, fixture
# coverage — as compile-time checks. Zero diagnostics is the contract;
# intentional exceptions carry //lint:allow <analyzer> <reason> in the
# code they except.
lint: ## run the repolint determinism-invariant suite (zero diagnostics required)
	$(GO) run ./cmd/repolint ./...

build: ## compile every package and binary
	$(GO) build ./...

test: ## run the tier-1 test suite
	$(GO) test ./...

race: ## run the test suite under the race detector
	$(GO) test -race ./...

# fuzz runs each fuzz target for a bounded time, one after the other
# (`go test -fuzz` takes one target per run): the journal reader's
# (against its previous implementation), the one-pass JSON validator
# against encoding/json, the wire decoders', the store's items.idx
# loader, the one workload document rule (grid.LoadWork, checked against
# the wire decoders), the service's worker-facing endpoints (lease,
# heartbeat, result, fail), the stack-distance profiler against a
# brute-force LRU reference, the Levenberg–Marquardt solver against its
# previous implementation, bit for bit, then the prepared knob search
# against the searches it replaced. Their seed corpora (and any
# committed crasher under testdata/fuzz) already run in every plain
# `go test`; this explores beyond them.
fuzz: ## fuzz the journal reader, the JSON line validator, the wire decoders, the store index loader, the document loader, the worker protocol, the profiler, the model-fit solver and the knob search for 20s each
	$(GO) test ./internal/dist/journal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 20s
	$(GO) test ./internal/dist/journal -run '^$$' -fuzz '^FuzzCanonical$$' -fuzztime 20s
	$(GO) test ./internal/work -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 20s
	$(GO) test ./internal/dist/store -run '^$$' -fuzz '^FuzzOpenIndex$$' -fuzztime 20s
	$(GO) test ./internal/grid -run '^$$' -fuzz '^FuzzLoadWork$$' -fuzztime 20s
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzWorkerProtocol$$' -fuzztime 20s
	$(GO) test ./internal/profile -run '^$$' -fuzz '^FuzzProfileExact$$' -fuzztime 20s
	$(GO) test ./internal/fit -run '^$$' -fuzz '^FuzzLevenbergMarquardt$$' -fuzztime 20s
	$(GO) test ./internal/opt -run '^$$' -fuzz '^FuzzSearch$$' -fuzztime 20s

# bench-compile runs every benchmark exactly once — cheap enough for CI,
# and it catches benchmarks that bit-rot against API changes.
bench-compile: ## run every benchmark once as a compile-and-run check
	$(GO) test -bench=. -benchtime=1x ./...

# bench is the real measurement run.
bench: ## run the real benchmark measurements
	$(GO) test -bench=. -benchmem .

# bench-snapshot regenerates the committed perf snapshot: sec/op for the
# hot packages, parsed into stable JSON by cmd/benchsnap. -benchtime=2x
# keeps regeneration cheap while averaging out the worst first-iteration
# noise; the snapshot records a trajectory, not a gate (the gate is CI's
# bench-regression job).
bench-snapshot: ## regenerate the committed perf snapshot ($(SNAPSHOT))
	$(GO) test -bench . -benchtime=2x -run '^$$' $(SNAPSHOT_PKGS) | $(GO) run ./cmd/benchsnap -o $(SNAPSHOT)

# cover mirrors the CI coverage job: per-package percentages on stdout,
# the profile in cover.out, the total at the end.
cover: ## run the suite with a coverage profile and print the total
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# golden regenerates checked-in golden files (scenario batch output, the
# NDJSON stream pinned against it, the model's float bits over every
# admitted organization, the grid expansion, and the stdout of the
# command surfaces: figures at both fidelities, the example grids through
# scenario, characterize's samples, a cacheleak frontier, and every
# example program).
golden: ## regenerate the checked-in golden files (scenario output, model float bits, grid expansion, figures/scenario/characterize/cacheleak/examples stdout)
	$(GO) test ./internal/scenario -run 'TestBatchGolden|TestStreamGolden|TestModelBitsGolden' -update
	$(GO) test ./internal/grid -run TestExpandGolden -update
	$(GO) test ./cmd/figures ./cmd/scenario ./cmd/characterize ./cmd/cacheleak -run '^TestStdoutGolden$$' -update
	$(GO) test . -run '^TestExamplesGolden$$' -update

# docs regenerates docs/wire-protocol.md from the live protocol fixtures
# in internal/docs (the same golden -update idiom as `make golden`). The
# CI docs job runs the comparison, so a protocol change without a
# regenerated doc fails CI.
docs: ## regenerate docs/wire-protocol.md from live protocol fixtures
	$(GO) test ./internal/docs -run TestWireProtocolDoc -update
