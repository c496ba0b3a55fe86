GO ?= go

.PHONY: build test race bench bench-smoke chaos lint lint-json federation-smoke soak-smoke slo-check store-conformance match-fuzz profile-fuzz check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# chaos replays the deterministic fault-injection suite (seeded
# partitions, burst loss, directory crashes, hedged forwarding) under the
# race detector. The seed matrix lives in the tests themselves.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Hedge|Evicted|Fault|Churn|Partition' \
		./internal/discovery/ ./internal/simnet/ -v

# lint runs go vet plus the ten project analyzers (lockcheck,
# goroutinecheck, detrand, sleeptest, metricnames, simnetimport,
# atomicmix, immutcheck, hotalloc, errdrop). Exit status 1 means
# findings; `make lint-json` emits them machine-readable.
lint:
	$(GO) run ./cmd/sdplint ./...

lint-json:
	$(GO) run ./cmd/sdplint -json ./...

# bench-smoke runs the parallel discovery benchmark and the
# publish-at-size benchmark once each under the race detector (a cheap
# gate that the lock-free snapshot read path stays publication-safe, and
# that the incremental publish is compiled and exercised at 200 to 8000
# services in both directory shapes), prints what a preloaded
# advertisement leaves on the daemon's heap (B/advert, allocs/advert, both
# shapes), replays one publish and one query datagram of each shape
# through the daemon's front end in process (BenchmarkHandleDatagram, the
# benchmark to profile for what share of a publish is classification),
# then regenerates the Fig. 8 insert
# series (both shapes, with match operations per insert) and the Fig. 9/10
# latency series as BENCH_fig8.json / BENCH_fig9.json / BENCH_fig10.json —
# CI uploads them as artifacts so every run leaves a comparable trace.
bench-smoke:
	$(GO) test -race -run '^$$' -bench 'BenchmarkParallelDiscovery|BenchmarkRegisterAtSize' -benchtime=1x -benchmem ./internal/registry/
	$(GO) test -run '^$$' -bench BenchmarkPreloadResident -benchtime=1x ./cmd/sdpd/
	$(GO) test -run '^$$' -bench BenchmarkHandleDatagram -benchtime=1x -benchmem ./cmd/sdpd/
	$(GO) run ./cmd/benchfig -fig 8 -max 60 -step 30 -reps 25 -benchjson
	$(GO) run ./cmd/benchfig -fig 9 -max 60 -step 30 -reps 25 -benchjson
	$(GO) run ./cmd/benchfig -fig 10 -max 60 -step 30 -reps 25 -benchjson

# slo-check replays each load scenario with exactly the flags that
# produced its checked-in baseline (bench/baselines/) and diffs the fresh
# report against it under the tolerance bands documented there. Non-zero
# exit = latency/throughput regression or workload drift.
SLO_FLAGS = -seed 42 -nodes 9 -services 60 -ontologies 12 -ops 600 -warmup 60

slo-check:
	$(GO) run ./cmd/sdpload -scenario flash-crowd $(SLO_FLAGS) -sample 100ms \
		-out BENCH_load_flash-crowd.json
	$(GO) run ./cmd/slocheck -baseline bench/baselines/BENCH_load_flash-crowd.json \
		-run BENCH_load_flash-crowd.json -tolerance bench/baselines/tolerances.json
	$(GO) run ./cmd/sdpload -scenario thundering-herd $(SLO_FLAGS) -rate 300 -sample 250ms \
		-fault-scale 2s -out BENCH_load_thundering-herd.json
	$(GO) run ./cmd/slocheck -baseline bench/baselines/BENCH_load_thundering-herd.json \
		-run BENCH_load_thundering-herd.json -tolerance bench/baselines/tolerances-faulty.json
	$(GO) run ./cmd/sdpload -scenario brownout $(SLO_FLAGS) -rate 300 -sample 250ms \
		-fault-scale 2s -out BENCH_load_brownout.json
	$(GO) run ./cmd/slocheck -baseline bench/baselines/BENCH_load_brownout.json \
		-run BENCH_load_brownout.json -tolerance bench/baselines/tolerances-faulty.json

# store-conformance runs the durability suite under the race detector:
# the one on-disk log (internal/framelog: crash-injection table,
# failed-write rollback), then both store implementations (boltlike and
# the memstore fake) against the shared storetest contract — ordered
# replay, idempotent reopen, concurrent append/replay, crash-recovery by
# injected truncation — plus the sdpd replay/import integration tests and
# short runs of the frame-scan and record-codec fuzzers.
store-conformance:
	$(GO) test -race -count=1 ./internal/framelog/ ./internal/store/... ./cmd/sdpd/
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime 10s ./internal/framelog/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s ./internal/store/

# match-fuzz is a short run of the differential fuzzer that holds the
# directory's match operation — over capabilities encoded once — to the
# by-name SemanticDistance it replaced there.
match-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEncodedDistance -fuzztime 10s ./internal/match/

# profile-fuzz is a short run of the differential fuzzer that holds the
# Amigo-S scanner to encoding/xml: whatever it does not decline it reads
# exactly as the generic decoder does.
profile-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalEqualsGeneric -fuzztime 10s ./internal/profile/

# federation-smoke boots three sdpd processes federated over loopback
# UDP, registers a service on one daemon, resolves it from another, and
# scrapes /metrics: malformed Prometheus exposition, a missing acceptance
# metric or zero backbone traffic fails it.
federation-smoke:
	$(GO) run ./cmd/fedsmoke

# soak-smoke is the 90-second miniature of an overnight soak: a
# three-daemon federation with durable telemetry journals and drift
# watchdogs must stay silent while healthy, serve pre-restart history
# after a restart, and fire goroutine_growth on an injected leak.
soak-smoke:
	$(GO) run ./cmd/soaksmoke

# check is the full CI gate: .github/workflows/ci.yml runs exactly these
# targets, one step each (slo-check in a job of its own), plus bench-smoke
# for the figure artifacts — so a green `make check` and a green CI run
# mean the same thing.
check: build lint test race chaos store-conformance match-fuzz profile-fuzz federation-smoke soak-smoke slo-check

clean:
	$(GO) clean ./...
