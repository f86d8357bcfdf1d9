GO ?= go
FUZZTIME ?= 20s
# COVER_MIN gates `make coverage`: total statement coverage must not drop
# below this floor (measured baseline is 81.8%; the floor sits a little
# under it so unrelated churn doesn't flake the gate).
COVER_MIN ?= 80.0

.PHONY: build test race vet fmt bench benchartifact benchcmp benchsmoke benchmod obs-smoke servesmoke mutatesmoke examples check fuzzsmoke coverage

# BENCH_ARTIFACT is the checked-in benchmark snapshot this PR sequence
# tracks; benchcmp diffs a fresh run against it.
BENCH_ARTIFACT ?= BENCH_10.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean, printing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# check is the CI gate: formatting, static analysis, then the full suite
# under the race detector (the parallel query pipeline is enabled by
# default, so every test exercises the concurrent paths).
check: fmt vet race

# bench regenerates benchall_output.txt (untracked; see .gitignore) from
# the full default-scale evaluation, then refreshes the machine-readable
# benchmark artifact.
bench:
	$(GO) run ./cmd/benchall | tee benchall_output.txt
	$(GO) run ./cmd/benchall -artifact $(BENCH_ARTIFACT) -scale tiny

# benchartifact refreshes only the machine-readable snapshot (the fast
# path CI and benchcmp use).
benchartifact:
	$(GO) run ./cmd/benchall -artifact $(BENCH_ARTIFACT) -scale tiny

# benchcmp measures a fresh artifact and diffs it against the checked-in
# baseline, flagging >10% ns/op regressions (informational: wall-clock
# comparisons across machines are noisy, so CI runs this non-blocking).
benchcmp:
	$(GO) run ./cmd/benchall -artifact /tmp/bench_head.json -scale tiny
	$(GO) run ./cmd/benchall -compare $(BENCH_ARTIFACT) /tmp/bench_head.json

# benchsmoke runs every Go benchmark exactly once — the CI smoke check
# that the benchmark harness itself still works.
benchsmoke:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# benchmod vets and tests the nested benchmark module (xwhbench), which
# `go test ./...` at the root skips: an API change in the main module that
# breaks the benchmark fails here.
benchmod:
	$(GO) -C xwhbench vet ./...
	$(GO) -C xwhbench test ./...

# obs-smoke boots a small warehouse, runs one query, scrapes the Prometheus
# exporter once over HTTP and verifies the payload parses.
obs-smoke:
	$(GO) run ./cmd/xwh -corpus paintings -query '//painting[/name{val}]' -obs-smoke

# servesmoke stands the query daemon up on a loopback port, drives a short
# seeded closed-loop loadgen burst against it, asserts zero errors plus a
# live serve.admitted counter on /metrics, then drains it with SIGTERM.
servesmoke:
	$(GO) build -o /tmp/xwh_smoke ./cmd/xwh
	$(GO) build -o /tmp/loadgen_smoke ./cmd/loadgen
	/tmp/xwh_smoke serve -corpus paintings -addr 127.0.0.1:18980 -serve-workers 4 & \
		pid=$$!; \
		/tmp/loadgen_smoke -addr http://127.0.0.1:18980 -wait-ready 30s \
			-requests 40 -concurrency 4 -seed 7 -dist zipf -queries paintings \
			-check-metrics; rc=$$?; \
		kill -TERM $$pid 2>/dev/null; wait $$pid; exit $$rc

# mutatesmoke stands a mutable-corpus daemon up on a loopback port, drives
# a seeded mixed read/write loadgen burst (every 3rd request a document
# write, every 4th write a DELETE), asserts zero errors plus live serve
# metrics, then drains it with SIGTERM.
mutatesmoke:
	$(GO) build -o /tmp/xwh_smoke ./cmd/xwh
	$(GO) build -o /tmp/loadgen_smoke ./cmd/loadgen
	/tmp/xwh_smoke serve -mutable -docs 24 -addr 127.0.0.1:18981 -serve-workers 4 & \
		pid=$$!; \
		/tmp/loadgen_smoke -addr http://127.0.0.1:18981 -wait-ready 30s \
			-requests 48 -concurrency 4 -seed 7 -queries xmark \
			-write-every 3 -write-docs 24 -remove-every 4 \
			-check-metrics; rc=$$?; \
		kill -TERM $$pid 2>/dev/null; wait $$pid; exit $$rc

# examples runs every example program end to end and fails on the first
# non-zero exit.
examples:
	@for ex in examples/*/; do \
		echo "== go run ./$$ex"; \
		$(GO) run ./$$ex || { echo "example $$ex failed"; exit 1; }; \
	done

# fuzzsmoke runs every native fuzz target for FUZZTIME of live mutation on
# top of the checked-in seed corpora. `go test -fuzz` accepts only one
# matching target per invocation, so discover and loop.
fuzzsmoke:
	@for pkg in ./internal/idblock ./internal/index ./internal/pattern ./internal/xmltree ./internal/xquery; do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test $$pkg -run="^$$target$$" -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) || exit 1; \
		done; \
	done

# coverage measures total statement coverage across all packages and fails
# if it drops below COVER_MIN.
coverage:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_MIN)% floor"; exit 1; }
