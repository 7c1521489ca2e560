GO ?= go

.PHONY: build test bench bench-smoke check vet race lint pdnlint lint-sarif smoke smoke-serve chaos perfbench-check examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples builds every program under examples/ into a temporary directory
# and runs each one; any non-zero exit fails the target. The build alone
# would not catch an example that compiles but errors or panics at run time.
examples:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./examples/... || exit 1; \
	for ex in "$$dir"/*; do \
		echo "== $$(basename "$$ex")"; \
		"$$ex" > /dev/null || { echo "example $$(basename "$$ex") failed"; exit 1; }; \
	done

# bench runs the paper-figure and dense-kernel benchmarks and records them
# into the BENCH_<date>.json trajectory (scripts/bench.sh, cmd/benchjson).
bench:
	./scripts/bench.sh

# bench-smoke is the CI variant: two timed iterations per benchmark after
# Go's discarded warm-up call (as in the committed 3x runs), gated against
# the committed trajectory — fails on a >2x ns/op regression of any shared
# benchmark (the factor lives in cmd/benchjson). A benchmark that trips the
# gate is re-run up to twice; it fails only if its fastest re-run still
# trips, so one noisy run on a shared host does not fail the target.
bench-smoke:
	BENCH_SMOKE=1 BENCH_BASELINE=$(BENCH_BASELINE) ./scripts/bench.sh

vet:
	$(GO) vet ./...

# perfbench-check vets and tests the repository benchmark (perfbench/, run
# by perfbench/run.sh). It is its own Go module (replace pdnsim => ../), so
# the root build never compiles it; this target is what catches a library API
# change that breaks the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# pdnlint is the project's own static analyser (cmd/pdnlint): it enforces
# the solver's safety contracts — typed errors, cancellation in hot loops,
# no float equality, named tolerances, race-safe fan-out, lock-hold and
# lock-order discipline, accounted goroutines, durable-write envelopes, and
# allocation-free //pdn:hot kernels. The roster comes from lint.Analyzers;
# adding an analyzer there is all it takes for this target (and CI) to
# enforce it. Zero findings is the contract; suppressions need a
# //pdnlint:ignore with a reason.
pdnlint:
	$(GO) run ./cmd/pdnlint ./...

# lint-sarif writes the same findings as SARIF 2.1.0 (pdnlint.sarif) for
# code-scanning upload; the exit code still reflects findings.
lint-sarif:
	$(GO) run ./cmd/pdnlint -sarif ./... > pdnlint.sarif

# lint is vet plus a formatting check plus pdnlint: any file gofmt would
# rewrite fails the target (and is listed).
lint: vet pdnlint
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# smoke kills a checkpointed transient mid-run with SIGTERM and verifies a
# -resume run reproduces the uninterrupted output byte-for-byte.
smoke:
	./scripts/smoke-killresume.sh

# smoke-serve SIGTERMs the pdnserve daemon mid-sweep and verifies the drain
# contract: exit 0, the interrupted job lands "snapshotted", and a restarted
# daemon resumes its snapshot to completion. A degraded-durability leg
# injects bounded journal faults via -fault-schedule and verifies the daemon
# serves honestly (durable:false, readyz "degraded") and re-arms on its own.
smoke-serve:
	./scripts/smoke-serve.sh

# chaos runs the storage-fault suites under the race detector: seeded fault
# schedules injected under the checkpoint filesystem seam (internal/fault),
# the crash-safety ordering tests (internal/checkpoint), and the daemon's
# durability state machine + recovery chaos (internal/serve). Short mode
# skips the subprocess kill-9 legs — CI runs those via smoke-serve; the
# seeded schedules replay deterministically either way.
chaos:
	$(GO) test -race -short ./internal/fault/ ./internal/checkpoint/ ./internal/serve/

# check is the full hygiene gate: static analysis and formatting plus the
# whole test suite under the race detector (the BEM assembly and S-parameter
# sweeps are parallel, so races are a real failure mode here).
check: lint race
