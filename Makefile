# DeltaPath build/test/eval entry points.

GO ?= go

.PHONY: all build test test-short test-shuffle race bench chaos eval profile-baseline fuzz \
	examples clean lint lint-invariants verify-encodings bench-smoke bench-baseline \
	decode-baseline scale-baseline golden-freshness ci-local serve-smoke ingest-stress \
	extend-soak scale-smoke ingest-bench-smoke

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The CI test step runs with -shuffle=on: any hidden inter-test ordering
# dependency fails loudly instead of lurking.
test-shuffle:
	$(GO) test -shuffle=on ./...

# A short chaos pass rides along via ./... (internal/chaos trims its seed
# counts under -short). The analysis engine's oracle and resume tests run
# again at GOMAXPROCS 1 and 4: the engine is serial, and these runs pin
# that its result does not depend on the CPU count. The verifier's oracle
# differentials and delta tests, which prove on 1 and 2 workers, run again
# at GOMAXPROCS 1 and 2. The compiled decoder's tests, whose goroutines
# race to publish a territory row on first decode, run again at GOMAXPROCS
# 1 and 4.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -short -cpu 1,4 -run 'TestParallel|TestResume' ./internal/core
	$(GO) test -race -short -cpu 1,2 -run 'MatchesOracle|TestCheckDelta' ./internal/verify
	$(GO) test -race -short -cpu 1,4 -run TestCompiled ./internal/encoding

# Full fault-injection suite: ≥1000 seeded runs over the workload corpus,
# every injected fault detected and healed (see internal/chaos). Includes
# the dprofiled SIGKILL soak (soak_test.go): ≥10 kill -9 cycles against a
# live ingest stream with an exact acked-vs-recovered record ledger.
chaos:
	$(GO) test ./internal/chaos -count=1 -v
	$(GO) run ./cmd/dprun -chaos -chaos-rate 0.05 -seed 13 -unique testdata/recursion.mv

# End-to-end ingestion-service smoke through the real binaries: dprun
# -push into dprofiled, every query endpoint, then SIGTERM and SIGKILL
# restarts with exact record preservation (scripts/serve_smoke.sh).
serve-smoke:
	./scripts/serve_smoke.sh

# Concurrent-ingest stress under the race detector: 8 agents hammering a
# deliberately tiny queue with a retry storm; exactly-once delivery and
# visible backpressure sheds are asserted. Then agents ingesting fresh keys
# into the intern table while /query?top, the full stream and /top read it
# (internal/server).
ingest-stress:
	$(GO) test -race -count=1 -run 'TestServerIngestStress|TestInternRace' ./internal/server -v

# Ingest fast-path smoke: the ingest-throughput experiment at a tiny
# configuration end to end (both commit policies over real durable state),
# plus the LSM segment store's flush/recovery round-trip under the race
# detector. The throughput *ratio* is gated by bench-smoke, not here — a
# loaded CI box can't promise one.
ingest-bench-smoke:
	$(GO) test -count=1 -run TestIngestThroughputSmoke ./internal/eval -v
	$(GO) test -race -count=1 -run 'TestSegmentRoundTrip|TestSegmentRecoveryRoundTrip|TestGroupCommit' ./internal/server -v

# Incremental-encoding soak: ≥200 random interleavings of class loads,
# calls, Extend publications, and mid-run Adopts, frame-exact against a
# whole-program oracle, under the race detector (extend_test.go).
extend-soak:
	EXTEND_SOAK_TRIALS=200 $(GO) test -race -count=1 -run TestExtendSoak . -v

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation artifacts into results/.
eval:
	mkdir -p results
	$(GO) run ./cmd/dpbench -experiment table1 | tee results/table1.txt
	$(GO) run ./cmd/dpbench -experiment fig8 -scale 1.0 -repeats 5 | tee results/fig8_full.txt
	$(GO) run ./cmd/dpbench -experiment table2 -scale 0.3 | tee results/table2.txt

# Regenerate the concurrent-profile-store throughput baseline. The JSON
# carries a meta block (num_cpu, gomaxprocs) — scaling numbers are only
# meaningful relative to the machine that produced them.
profile-baseline:
	mkdir -p results
	$(GO) run ./cmd/dpbench -experiment profile -scale 0.1 \
		-bench compress,sunflow,xml.validation -json | tee results/BENCH_0002.json

# Short fuzz smoke over the byte-level parsers, the .dpa loader and the
# .dpa verifier (also run in CI).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalContext -fuzztime 10s ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzCompiledDecode -fuzztime 10s ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzProfileReader -fuzztime 10s ./internal/profile
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s ./internal/analysisio
	$(GO) test -run '^$$' -fuzz FuzzVerify -fuzztime 10s ./internal/verify
	$(GO) test -run '^$$' -fuzz FuzzCheckDelta -fuzztime 10s ./internal/verify
	$(GO) test -run '^$$' -fuzz FuzzExtend -fuzztime 10s .

# Lint: gofmt and vet always; staticcheck/govulncheck when installed (CI
# installs pinned versions — see .github/workflows/ci.yml; offline
# containers just skip them).
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping"; fi

# Project-specific invariants as a go vet plugin (internal/lint: obssink,
# profilelock, magicbytes — see cmd/dplint-go for the protocol).
lint-invariants:
	mkdir -p bin
	$(GO) build -o bin/dplint-go ./cmd/dplint-go
	$(GO) vet -vettool=$(CURDIR)/bin/dplint-go ./...

# Static encoding-soundness certificates: dplint must verify every curated
# program and committed analysis fixture-free of findings (the seeded-defect
# fixtures under testdata/lint are exercised by TestGoldenLint instead —
# they are supposed to fail).
verify-encodings:
	$(GO) run ./cmd/dplint examples/*.mv testdata/*.mv

# Huge-graph scalability gate: one reduced 5×10⁴-node tier end to end —
# generate, analyze twice independently, assert byte-identical .dpa
# output, verify serially and on 4 workers with byte-identical reports
# (under -race), compile, decode (see scale_smoke_test.go). The full
# 10⁵–10⁶-node curve is `go run ./cmd/dpbench -experiment scale -scale 1.0`
# (results/scale.txt).
scale-smoke:
	SCALE_SMOKE_NODES=50000 $(GO) test -race -count=1 -run TestScaleSmoke . -v

# Bench-smoke regression gate: re-measure the newest results/BENCH_*.json
# baseline and fail on any key metric >25% worse (see cmd/dpbench/compare.go
# and EXPERIMENTS.md for the gated metrics and re-baselining).
bench-smoke:
	$(GO) run ./cmd/dpbench -compare \
		"$$(ls results/BENCH_*.json | sort | tail -1)" -tolerance 0.25 -repeats 5

# Record a fresh bench-smoke baseline (bump NNNN; commit the file). The
# scale experiment rides along at -scale 0.4 (tiers 40k–400k nodes): the
# gate re-measures only its ≤10⁵-node tiers, and only the machine-
# independent bytes/node plus the identity/verify verdicts. The extend
# experiment contributes the delta-verify-vs-full obligation fractions —
# deterministic counts, so they gate exactly. The ingest experiment
# contributes the group-commit/per-batch throughput ratios at 4 and 8
# agents (the 1-agent row is informational; see cmd/dpbench/compare.go).
bench-baseline:
	mkdir -p results
	$(GO) run ./cmd/dpbench -experiment encode,profile,decode,scale,extend,ingest \
		-bench compress,sunflow,mpegaudio -scale 0.4 -repeats 5 -workers 4 -json \
		> results/BENCH_0010.json

# Regenerate the full million-node scale curve (results/scale.txt) — the
# human-readable companion of the scale rows in the bench baseline, and the
# acceptance artifact for the 10⁶-node tier.
scale-baseline:
	mkdir -p results
	$(GO) run ./cmd/dpbench -experiment scale -scale 1.0 -workers 4 | tee results/scale.txt

# Regenerate the decode-throughput table over the full suite (legacy map
# decoder vs compiled flat tables; results/decode.txt) — the human-readable
# companion of the gated speedup rows in the bench-smoke baseline.
decode-baseline:
	mkdir -p results
	$(GO) run ./cmd/dpbench -experiment decode -scale 0.3 -repeats 3 | tee results/decode.txt

# Golden freshness: regenerate the golden decodes with -update and fail if
# the committed files drift (a stale golden means an unreviewed behavior
# change slipped past).
golden-freshness:
	$(GO) test . -run TestGolden -update
	$(GO) test ./internal/obs -run TestExport -update
	@git diff --exit-code -- testdata/golden testdata/lint internal/obs/testdata || \
		{ echo "golden files drifted: review and commit the regenerated files"; exit 1; }

# Everything CI runs, in CI's order — reproduce a red workflow offline.
ci-local: lint lint-invariants build test-shuffle race verify-encodings serve-smoke ingest-stress ingest-bench-smoke extend-soak golden-freshness bench-smoke scale-smoke
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalContext -fuzztime 5s ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 5s ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzCompiledDecode -fuzztime 5s ./internal/encoding
	$(GO) test -run '^$$' -fuzz FuzzProfileReader -fuzztime 5s ./internal/profile
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 5s ./internal/analysisio
	$(GO) test -run '^$$' -fuzz FuzzVerify -fuzztime 5s ./internal/verify
	$(GO) test -run '^$$' -fuzz FuzzCheckDelta -fuzztime 5s ./internal/verify
	$(GO) test -run '^$$' -fuzz FuzzExtend -fuzztime 5s .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/logging
	$(GO) run ./examples/profiling
	$(GO) run ./examples/dynamicload
	$(GO) run ./examples/anomaly

clean:
	rm -f results/*.txt test_output.txt bench_output.txt
