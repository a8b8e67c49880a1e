# Build, verify, and benchmark targets for the hidb reproduction.

GO ?= go
BENCH_OUT ?= bench.out
# bench compares the fresh snapshot's query-count metrics against the
# committed baseline CI diffs against. The snapshot goes to an untracked
# file, so a bare `make bench` never overwrites a committed baseline; a
# perf PR commits its own snapshot with BENCH_JSON=BENCH_<n>.json.
BENCH_JSON ?= bench-snapshot.json
BENCH_BASELINE ?= BENCH_10.json
# Minimum statement coverage (percent) for the algorithm, server-contract,
# pipelined-dispatcher, session, fault-injection, retrying-transport,
# index-engine, disk-engine, dataset-factory, shared-memo, journal-memo,
# wire-codec and HTTP-server packages, enforced by `make cover`. Raise as
# the suite grows; never lower it to ship.
COVER_PKGS ?= ./internal/core ./internal/hiddendb ./internal/parallel ./internal/session ./internal/chaos ./internal/httpclient ./internal/index ./internal/diskstore ./internal/datagen ./internal/memo ./internal/journal ./internal/loadgen ./internal/wire ./internal/httpserver
COVER_MIN ?= 80
COVER_OUT ?= cover.out

.PHONY: all build check test race cover bench bench-check chaos loadgen-smoke server-smoke clean

all: build check test race cover

build:
	$(GO) build ./...

# check runs the static gates: go vet, gofmt and the one-clock guard. It
# fails listing the offending files if any file is not gofmt-clean, and
# the offending lines if a non-test file under internal/ reads or waits on
# the time package directly instead of through a hiddendb.Clock. The only
# exceptions are the Wall clock itself (hiddendb/clock.go), httpclient's
# per-attempt wall-time bound and loadgen's real-socket mode.
CLOCK_CALLS = '\btime\.(Now|Since|Until|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)\b'
CLOCK_ALLOWED = '^internal/hiddendb/clock\.go:|^internal/loadgen/socket\.go:|^internal/httpclient/retry\.go:[0-9]+:.*time\.AfterFunc\(r\.policy\.PerAttempt,'
check:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi
	@out=$$(grep -rnE $(CLOCK_CALLS) --include='*.go' --exclude='*_test.go' internal | grep -vE $(CLOCK_ALLOWED)); \
	if [ -n "$$out" ]; then \
		echo "time read or slept outside hiddendb.Clock:"; echo "$$out"; exit 1; \
	fi

# Tier-1 verification: everything must build and every test must pass.
test: build
	$(GO) test ./...

# race runs the whole suite under the race detector — the concurrent
# session table, sharded store fan-out, and batching dispatcher all carry
# lock-discipline invariants that only -race can check.
race: build
	$(GO) test -race ./...

# cover gates the combined statement coverage of the COVER_PKGS packages:
# the crawling algorithms, the server contract and decorators, and every
# subsystem stacked on them. Fails below COVER_MIN%.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "total statement coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_MIN))}" || { \
		echo "coverage $$total% is below the $(COVER_MIN)% gate"; exit 1; \
	}

# bench runs the full benchmark suite — the figure/theorem harness (whose
# custom metrics are the paper's query counts) plus the index engine's
# microbenchmarks — and snapshots it as JSON for the perf trajectory.
# Output goes to the file first (not through tee) so a failing benchmark
# run aborts the target instead of writing a partial snapshot. The snapshot
# is then diffed against BENCH_BASELINE: all *_queries metrics
# (the paper's cost measure) and *_hitrate metrics (the fleet ablation's
# deterministic cache-hit ratios) must be bit-identical.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . ./internal/index ./internal/diskstore > $(BENCH_OUT) || { cat $(BENCH_OUT); exit 1; }
	cat $(BENCH_OUT)
	$(GO) run ./scripts/benchjson -in $(BENCH_OUT) -out $(BENCH_JSON) -baseline $(BENCH_BASELINE)

# bench-check vets and tests the end-to-end crawl benchmark. bench/ is a
# separate module (hidb/bench), so `go test ./...` at the root never builds
# it, yet it imports the internal packages — this target catches an
# internal API change that breaks it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# chaos runs the resilience suites under the race detector in short mode:
# the end-to-end soak (every algorithm through a hostile network and two
# server crash/restarts, paid queries bit-equal to the fault-free
# reference), the fleet-mode pass (a shared-cache leader crashing mid-crawl
# and resuming with followers attached, store-paid bit-equal to the
# fault-free fleet), the retrying transport, the crash-safe journal
# recovery and the load-shedding server.
chaos: build
	$(GO) test -race -short ./internal/chaos/ ./internal/httpclient/ ./internal/journal/ ./internal/httpserver/ ./internal/session/

# loadgen-smoke is the load-driver determinism gate: the sim mode must
# produce byte-identical artifacts for the same seed (sheds, rejections
# and percentiles included) and the artifact must pass its own schema
# check — the properties CI leans on when diffing latency ablations.
loadgen-smoke: build
	$(GO) run ./cmd/hidb-loadgen -mode sim -sessions 48 -ops 6 -seed 11 -quota 12 -max-inflight 8 -out loadgen-a.json
	$(GO) run ./cmd/hidb-loadgen -mode sim -sessions 48 -ops 6 -seed 11 -quota 12 -max-inflight 8 -out loadgen-b.json
	cmp loadgen-a.json loadgen-b.json
	$(GO) run ./cmd/hidb-loadgen -check loadgen-a.json
	rm -f loadgen-a.json loadgen-b.json

# server-smoke is the default server end to end over a real socket, three
# times (mem, -engine disk, then -engine disk -shards 4 on the same data
# dir, which must serve 4 bands): hidb-server with no session flags
# serves AdultLike at k=256, a 16-worker hidb-crawl must pay exactly 778
# queries, /stats must show them on the anonymous session and name the
# engine, SIGTERM must exit 0, and the removed -quota flag must be refused
# (see scripts/server-smoke.sh).
server-smoke: build
	GO=$(GO) bash scripts/server-smoke.sh

clean:
	rm -f $(BENCH_OUT) bench-snapshot.json $(COVER_OUT) loadgen-a.json loadgen-b.json
