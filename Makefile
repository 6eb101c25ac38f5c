GO ?= go

.PHONY: tier1 vet lint lint-vet lint-json lint-fixtures govulncheck race race-full bench bench-baseline bench-smoke bench-json shard-equivalence ctlplane-smoke ci

# Tier-1 gate: must stay green (see ROADMAP.md).
tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# Invariant lint: the cdnlint analyzer suite (internal/analysis) over the
# whole tree. Exits non-zero on any unsuppressed diagnostic; see
# DESIGN.md "Invariants" for the checks and the suppression syntax.
lint:
	$(GO) run ./cmd/cdnlint ./...

# Same suite driven through go vet's -vettool protocol: exercises the
# driver's second mode and vet's per-package caching.
lint-vet:
	$(GO) build -o bin/cdnlint ./cmd/cdnlint
	$(GO) vet -vettool=bin/cdnlint ./...

# Machine-readable lint run: LINT.json is a versioned api.LintReport that
# also inventories every //lint:ignore-suppressed finding with its reason.
# CI uploads it as an artifact (even when findings fail the step, so the
# report that explains the failure is always available).
lint-json:
	$(GO) run ./cmd/cdnlint -json ./... > LINT.json

# The analyzers' own test suites: the // want fixture corpus under
# internal/analysis/testdata plus the standalone/vet driver handshake
# tests (exec'd as subprocesses).
lint-fixtures:
	$(GO) test -count=1 ./internal/analysis/ ./cmd/cdnlint/

# Vulnerability scan, tolerant of offline environments: skips with a
# warning when govulncheck is not installed or the vulnerability database
# is unreachable, but fails hard when vulnerabilities are actually found
# (govulncheck exit code 3).
govulncheck:
	@if ! command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck: not installed; skipping vulnerability scan" >&2; \
		exit 0; \
	fi; \
	govulncheck ./...; code=$$?; \
	if [ $$code -eq 0 ]; then \
		exit 0; \
	elif [ $$code -eq 3 ]; then \
		echo "govulncheck: vulnerabilities found" >&2; exit 3; \
	else \
		echo "govulncheck: scan failed (exit $$code), likely unreachable vulnerability database; skipping" >&2; \
		exit 0; \
	fi

# Race tier: vet + race detector on the short-mode matrix.
race: vet
	$(GO) test -race -short ./...

# Full race run (slow; includes the paper-headline integration test).
race-full: vet
	$(GO) test -race ./...

# One iteration of Figure 2 bare and with a live metrics registry, and one
# control-plane state derivation: catches benchmark rot and instrumentation
# regressions without a full bench run.
bench-smoke:
	$(GO) test -bench 'BenchmarkFigure2(Metrics)?$$' -benchtime 1x -run '^$$' .
	$(GO) test -bench 'BenchmarkStateOf$$' -benchtime 1x -run '^$$' ./internal/ctlplane/

# Control-plane gate: the snapshotfields analyzer over the packages that
# carry ChangeSet / snapshot state, then the end-to-end smoke test — build
# cdnsimd and cdnsim, start the daemon on an ephemeral port, and drive a
# drain ChangeSet dry-run → execute → verify (pass receipt, bit-identical
# digests) plus a sabotaged execution (fail receipt naming the diverging
# fields).
ctlplane-smoke:
	$(GO) run ./cmd/cdnlint -checks snapshotfields ./internal/ctlplane/... ./pkg/bestofboth/... ./internal/experiment/...
	$(GO) test -run 'TestCtlplaneSmoke|TestDiffStatesCoversEverySchemaField' -count=1 -v . ./internal/ctlplane/

# Everything CI runs (see .github/workflows/ci.yml).
ci: tier1 vet lint race bench-smoke ctlplane-smoke

# Figure-2 + convergence benchmarks with allocation stats.
bench:
	$(GO) test -bench 'Figure2|BGPConvergence' -benchmem -run '^$$'

# Capture a before/after baseline for perf work.
bench-baseline:
	$(GO) test -bench 'Figure2|BGPConvergence' -benchmem -run '^$$' | tee bench-baseline.txt

# Machine-readable benchmark record: re-runs the headline benchmarks
# (Figure2, BGPConvergence, the sharded-convergence suite, the partitioner
# suite, and the demand fold) and writes BENCH_PR9.json with ns/op,
# allocs/op, procs, shard counts, and the headline custom metrics per
# benchmark, plus percentage reductions against the committed baseline
# (bench/pr9_baseline.json). CI uploads the file as an artifact so the
# perf trajectory is tracked from PR 4 onward, and fails on >10% ns/op
# regression of any shared benchmark or on a sub-3x sharded convergence
# speedup (both downgrade to warnings on single-proc machines, which
# cannot exhibit parallel speedup and whose goroutine-heavy timings are
# scheduler-noise-bound). The partitioner's balance gate has no such
# escape hatch: event counts are machine-deterministic, so the run fails
# anywhere if ConvergencePartition/mode=static's (the static cost-model
# partitioner's) event-imbalance-max-mean exceeds 1.15 (the
# pre-partitioner BFS chunk cut sat at ~1.41).
# The bench output is staged in a file so the converter's compilation never
# competes with the benchmark for CPU; the trap removes it on every exit,
# and set -e makes a failure of either step fail the target loudly.
bench-json:
	@set -e; tmp=$$(mktemp bench-out.XXXXXX.tmp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -bench 'Figure2$$|BGPConvergence$$|ConvergenceSharded$$|Figure2Sharded$$|LoadAccounting$$|ConvergencePartition$$|PlanShards$$' -benchtime 3x -benchmem -run '^$$' . > "$$tmp"; \
	$(GO) run ./cmd/benchjson -baseline bench/pr9_baseline.json -out BENCH_PR9.json \
		-max-regression-pct 10 \
		-min-metric 'ConvergenceSharded/shards=8:speedup-x:3' \
		-max-metric 'ConvergencePartition/mode=static:event-imbalance-max-mean:1.15' < "$$tmp"

# Shard-equivalence gate: the digest tests proving shards=1 and shards=N
# produce bit-identical route and FIB state for every technique and
# bundled scenario — run under the race detector (the sharded runner's worker handoffs are exactly what -race
# scrutinizes).
shard-equivalence:
	$(GO) test -race -run 'TestSharded.*Equivalence|TestShardRunner' ./internal/experiment/ ./internal/netsim/
