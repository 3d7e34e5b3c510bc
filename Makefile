# Local workflow mirroring .github/workflows/ci.yml: `make ci` is the
# full tier-1 gate a PR must pass.

GO ?= go

.PHONY: all build fmt vet lint loc test race bench-out bench bench-record bench-compare benchmark-module fleet fuzz chaos store multiview ci

all: build

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Domain-invariant static analysis over the type-checked module: the
# per-package analyzers (atomiccheck, clockcheck, errdrop, lockcheck,
# printcheck, spancheck, stampcheck) plus the interprocedural ones
# (flowcheck, failclosedcheck, lockordercheck). A tree that does not
# type-check exits 2. Any finding fails, including an
# //overhaul:allow without a reason or one that suppresses nothing;
# the annotation is the only way to accept a finding. The full finding
# set is also written as SARIF. See DESIGN.md "Invariants & static
# analysis" and "Interprocedural analysis".
lint:
	$(GO) run ./cmd/overhaul-lint -sarif lint.sarif ./...

# Informational: the non-test Go line count ROADMAP.md tracks as its
# design-size measure. Prints the number; never fails on it.
loc:
	@git ls-files '*.go' | grep -v _test | xargs cat | wc -l

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Benchmarks, recorded machine-readably: the run and the conversion
# are separate steps so a bench failure is not masked by a pipe.
# 2000 iterations so the recorded numbers are steady-state: at 100x
# the ring-backed paths are still warming (every span allocates until
# the ring fills) and the JSON would record the cold path. -count=5
# because a shared machine's wall clock is one-sided noisy: the
# converter keeps the minimum ns/op (and the maximum allocs/op) across
# the repeats, which is far more stable than any single run. The
# parallel decision-path benchmarks additionally sweep -cpu 1,2,4 so
# the JSON records the scaling curve (as Name/cpus=N keys). Every
# conversion also appends the run's rows, keyed by commit, as one line
# of BENCH_history.jsonl beside its output (untracked), so drift shows.
BENCHFLAGS = -benchtime=2000x -count=5 -benchmem -run='^$$'

# One measurement of every benchmark into bench.out.
bench-out:
	$(GO) test -bench=. $(BENCHFLAGS) ./... > bench.out
	$(GO) test -bench='^BenchmarkParallel' -cpu=1,2,4 $(BENCHFLAGS) ./internal/kernel >> bench.out

# Refresh the committed contract, BENCH_overhaul.json. The only target
# that writes it: CI and `make ci` record into the untracked bench.json
# (bench-record) and gate against the committed file (bench-compare).
bench: bench-out
	@cat bench.out
	$(GO) run ./cmd/overhaul-benchjson -in bench.out -out BENCH_overhaul.json
	@rm -f bench.out

# Record a fresh run into the untracked bench.json and validate it,
# failing on malformed bench output; the committed contract is left
# alone.
bench-record: bench-out
	$(GO) run ./cmd/overhaul-benchjson -in bench.out -out bench.json
	$(GO) run ./cmd/overhaul-benchjson -check bench.json
	@rm -f bench.out

# Regression gate: re-measure and compare against the committed
# baseline. Fails on >25 % ns/op or any allocs/op regression on the
# gated benchmarks (see overhaul-benchjson -diff). Blocking in CI:
# the noise a shared runner adds is absorbed by min-of-count=5 wall
# clock, the 25 % ns budget, a 10 ns absolute noise floor (a relative
# budget on a sub-ns row like an unattached probe hook gates timer
# jitter, not code), and alloc-only gating of oversubscribed -cpu rows
# and the sub-100ns / syscall-bound BenchmarkStore rows.
# A PR that deliberately trades decision-path performance carries the
# `skip-bench-gate` label and refreshes the baseline via `make bench`
# in the same change.
bench-compare: bench-out
	$(GO) run ./cmd/overhaul-benchjson -in bench.out -diff BENCH_overhaul.json
	@rm -f bench.out

# The repo benchmark (cmd/overhaul-benchmark) is its own Go module, so
# `go test ./...` never compiles it. Its test runs every workload tiny
# (~6 s) against the current tree through the exported APIs it uses.
benchmark-module:
	cd cmd/overhaul-benchmark && $(GO) test .

# Fleet smoke: a short open-loop load run over 256 sessions, which
# exits non-zero when its own report fails a check (no events), plus
# one render of the fleet dashboard.
fleet:
	$(GO) run ./cmd/overhaul-load -sessions 256 -duration 2s -json > /dev/null
	$(GO) run ./cmd/overhaul-top -fleet 64 -mix bot-storm > /dev/null

# Short fuzz pass over the stamp-propagation invariants, the devfs
# helper protocol codec, the audit-store segment codec (binary frames
# and sealed footers, and the frame decoder's record round trip), the
# audit-store recovery merge (recovery and the cold scan read a
# directory holding arbitrary segment bytes as the same records), and
# the probe spec compiler (parse → String → parse round trip).
fuzz:
	$(GO) test ./internal/ipc -run='^$$' -fuzz='^FuzzMsgQueueStampPropagation$$' -fuzztime=10s
	$(GO) test ./internal/ipc -run='^$$' -fuzz='^FuzzShmStampPropagation$$' -fuzztime=10s
	$(GO) test ./internal/devfs -run='^$$' -fuzz='^FuzzMappingCodec$$' -fuzztime=10s
	$(GO) test ./internal/auditstore -run='^$$' -fuzz='^FuzzBinarySegmentDecode$$' -fuzztime=10s
	$(GO) test ./internal/auditstore -run='^$$' -fuzz='^FuzzSegmentDecode$$' -fuzztime=10s
	$(GO) test ./internal/auditstore -run='^$$' -fuzz='^FuzzRecordRoundTrip$$' -fuzztime=10s
	$(GO) test ./internal/probe -run='^$$' -fuzz='^FuzzProbeSpec$$' -fuzztime=10s

# Seeded chaos campaigns: all fault kinds armed, plus the mid-session
# channel-kill scenario. Deterministic — a failure reproduces from the
# seed printed in the output.
chaos:
	$(GO) run ./cmd/overhaul-chaos -seed 42 -steps 250 -faults default
	$(GO) run ./cmd/overhaul-chaos -seed 42 -steps 160 -faults default -kill 80
	$(GO) run ./cmd/overhaul-chaos -seed 7 -steps 160 -faults default -kill 40 -reconnect 90

# Durable-store smoke: a chaos campaign appends its audit stream into a
# store while store faults tear writes and crash rotations,
# then overhaul-top reopens the directory cold and queries it — the
# full append-under-chaos → kill → reopen → query loop. The -cold query
# reads the raw post-chaos directory first, before a warm open
# normalizes it, and its record lines must match the warm query's: the
# two read paths share one segment merge and must agree on the trail.
# Deterministic: the seed fixes the fault schedule and the expected
# record count. The closing overhaul-load -store run exits non-zero
# unless its store section shows throughput, a batch histogram that
# sums to its batch count, and zero dropped acks.
STOREDIR = /tmp/overhaul-store-smoke
store:
	rm -rf $(STOREDIR) $(STOREDIR).*
	$(GO) run ./cmd/overhaul-chaos -seed 11 -steps 200 -store $(STOREDIR) \
		-faults 'default,auditstore.append:error:prob=0.05,auditstore.batch:error:prob=0.02,auditstore.batch:crash:prob=0.01,auditstore.rotate:crash:after=3:count=1'
	$(GO) run ./cmd/overhaul-top -store $(STOREDIR) -cold > $(STOREDIR).cold
	$(GO) run ./cmd/overhaul-top -store $(STOREDIR) > $(STOREDIR).warm
	for f in $(STOREDIR).cold $(STOREDIR).warm; do sed -n '1p;$$p' $$f; done
	grep '^  ' $(STOREDIR).cold > $(STOREDIR).cold-records
	grep '^  ' $(STOREDIR).warm > $(STOREDIR).warm-records
	diff $(STOREDIR).cold-records $(STOREDIR).warm-records
	$(GO) run ./cmd/overhaul-top -store $(STOREDIR) -verdict deny -limit 10
	$(GO) run ./cmd/overhaul-top -store $(STOREDIR) -cold -verdict deny -limit 10
	$(GO) run ./cmd/overhaul-top -store $(STOREDIR) -since 5m -json > /dev/null
	rm -rf $(STOREDIR) $(STOREDIR).*
	$(GO) run ./cmd/overhaul-load -sessions 128 -duration 2s -store $(STOREDIR) -json > /dev/null
	rm -rf $(STOREDIR)

# Probe multiview overhead report: every probe-hooked hot path built in
# three modes (probes off, attached-idle, attached-matching + full
# telemetry), idle and match each timed against off in 64 paired
# chunks. -gate fails if any benchmark's median off→idle overhead
# exceeds the 10% budget and its median delta the 10ns/op floor;
# the JSON must satisfy the same checker that gates BENCH_overhaul.json.
multiview:
	$(GO) run ./cmd/overhaul-multiview -json multiview.json -html multiview.html -gate
	$(GO) run ./cmd/overhaul-benchjson -check multiview.json
	@rm -f multiview.json multiview.html

# Every gate ci.yml runs except the labelled bench regression gate
# (make bench-compare), ending with the telemetry smoke. It leaves the
# committed BENCH_overhaul.json as it found it.
ci: fmt build vet lint loc race benchmark-module bench-record fleet fuzz chaos store multiview
	$(GO) run ./cmd/overhaul-benchjson -check BENCH_overhaul.json
	$(GO) run ./cmd/overhaul-top -json > /dev/null
