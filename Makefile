# Development targets. CI (.github/workflows/ci.yml) runs the same
# sequence — vet, lint, build, test, race, the engine and
# incremental-vs-fresh differentials under race — plus staticcheck
# (not vendored here; CI installs it).

.PHONY: all vet lint build test race bench bench-large bench-figures fuzz experiments serve-smoke check

all: check

vet:
	go vet ./...

# The repo's own invariant suite (internal/analysis, driven by
# cmd/cfslint): deterministic map iteration, sanctioned clocks/RNG,
# single-source probe accounting, nil-safe observability, fenced facset
# algebra, plus the flow-aware serving invariants — one System.Current()
# load per request scope (snapconsist), cache epochs derived from
# Mapping.Epoch() with advance reachable from the Apply swap (epochkey),
# a provable termination edge on every daemon goroutine (goleak), and
# allocation-free //cfslint:hotpath functions (hotalloc). CI also runs
# `cfslint -json` and archives the machine-readable report. Also runs as
# a vet tool:
#   go vet -vettool=$$(go env GOPATH)/bin/cfslint ./...
lint:
	go run ./cmd/cfslint ./...

build:
	go build ./...

test:
	go test ./...

# Run the CFS engine's and the trace simulator's tests under the race
# detector: both run on one goroutine, and the detector keeps them that
# way while the daemon applies epochs on its writer goroutine.
# internal/serve rides along: its epoch-consistency test races
# concurrent queries against live Apply batches. So does cmd/cfsd,
# whose listener tests run a real server's goroutines against the
# request deadlines.
race:
	go test -race ./internal/cfs/... ./internal/trace/... ./internal/serve/... ./cmd/cfsd/

# Engine benchmark harness: times the CFS core (observability off and
# on) and writes machine-readable BENCH_cfs.json — ns/op, probes
# issued, proposals recomputed, peak RSS. Pass -incremental K in
# BENCH_FLAGS to also time K single-delta ApplyDelta epochs against a
# fresh re-run (-min-incremental-speedup gates the ratio). Override the
# knobs for a CI smoke run: make bench BENCH_PROFILE=small BENCH_RUNS=1
BENCH_PROFILE ?= default
BENCH_RUNS ?= 3
BENCH_FLAGS ?=
bench:
	go run ./cmd/cfsbench -profile $(BENCH_PROFILE) -runs $(BENCH_RUNS) $(BENCH_FLAGS) -out BENCH_cfs.json

# Internet-scale benchmark: the Large world under a budgeted iteration
# count, three timed runs per mode. Minutes of wall clock per run and
# about 2 GiB peak RSS; the nightly CI job runs it.
bench-large:
	go run ./cmd/cfsbench -profile large -runs 3 -out BENCH_cfs_large.json

# The figure/table reproduction benchmarks (go test -bench).
bench-figures:
	go test -bench . -benchtime 1x -run XXX .

# Regenerate the full experiments transcript (every table/figure of the
# paper's evaluation) that EXPERIMENTS.md is written against. The output
# is a build artifact and stays out of git (see .gitignore).
experiments:
	go run ./cmd/experiments > examples/experiments_output.txt

# End-to-end daemon smoke: boot cfsd on the small profile, drive the
# query API and one delta batch over HTTP, append to a followed churn
# log, and assert epoch advance + cache swap + graceful SIGTERM drain.
# Needs curl and jq.
serve-smoke:
	./scripts/serve_smoke.sh

fuzz:
	go test -fuzz FuzzParseIP -fuzztime 30s ./internal/netaddr/
	go test -fuzz FuzzIPRoundTrip -fuzztime 30s ./internal/netaddr/
	go test -fuzz FuzzParsePrefix -fuzztime 30s ./internal/netaddr/
	go test -fuzz FuzzParse -fuzztime 30s ./internal/trace/
	go test -fuzz FuzzDecodeBatch -fuzztime 30s ./internal/delta/
	go test -fuzz FuzzBatchBody -fuzztime 20s ./internal/serve/
	go test -fuzz FuzzDispatch -fuzztime 20s ./internal/serve/
	go test -fuzz FuzzIngestPlan -fuzztime 20s ./internal/cfs/

check: vet lint build test race
