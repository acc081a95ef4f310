# Developer / CI entry points. `make ci` is the gate: vet + the project
# invariant linter + build + the full test suite under the race detector
# + the short benchmark sweep + short fuzz passes over the byte-level
# parsers + the network-pipeline smoke test.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all vet lint lint-fast build cross dsp-v3 test race perfbench-test bench bench-gateway bench-json bench-matrix bench-gate fuzz chaos smoke experiments-smoke results decode-parity ci

all: ci

vet:
	$(GO) vet ./...

# Project-specific safety invariants: the per-package analyzers
# (nopanic, boundedalloc, errwrap, clockinject, nilsafeobs, atomicalign)
# plus the whole-program flow analyzers (hotpropagate, goroutineleak,
# lockdiscipline, arenaescape). See docs/LINTING.md. This is the one
# lint gate in ci (go test ./... re-checks it via TestModuleIsLintClean);
# -v puts per-analyzer wall time in the CI log.
lint:
	$(GO) run ./cmd/cic-lint -v ./...

# Local iteration: lint only the packages with Go changes since the
# origin/main merge-base. Whole-program analyzers see just these
# packages, so cross-package reachability is partial — `make lint`
# (and ci) still runs the full module.
lint-fast:
	@base=$$(git merge-base origin/main HEAD 2>/dev/null) || base=; \
	if [ -z "$$base" ]; then \
		echo "lint-fast: no origin/main merge-base; running the full module" >&2; \
		exec $(GO) run ./cmd/cic-lint ./...; \
	fi; \
	pkgs=$$(git diff --name-only "$$base" HEAD -- '*.go'; git diff --name-only -- '*.go'); \
	dirs=$$(echo "$$pkgs" | grep -v '^$$' | xargs -r -n1 dirname | sort -u | grep -v testdata | sed 's|^|./|'); \
	if [ -z "$$dirs" ]; then echo "lint-fast: no Go changes since $$base"; exit 0; fi; \
	echo "lint-fast: $$dirs"; \
	$(GO) run ./cmd/cic-lint $$dirs

build:
	$(GO) build ./...

# internal/dsp runs an AVX2 assembly kernel on amd64 and the portable Go
# loop everywhere else: cross-build for arm64 so the portable side keeps
# compiling and vetting behind its build tag.
cross:
	GOARCH=arm64 $(GO) vet ./internal/dsp/ && GOARCH=arm64 $(GO) build ./...

# The AVX2 kernels (goertzel3, the radix-4 FFT stages, the ICSS fold) are
# bit-identical to their Go loops only because the Go compiler never
# fuses a multiply and an add on amd64. GOAMD64=v3 lets the compiler use FMA instructions,
# so rerun the bit-identity tests there to keep that premise checked.
dsp-v3:
	GOAMD64=v3 $(GO) test -count=1 -run 'MatchesScalar|MatchesPerProbe|StagesMatchScalar|MatchesGather' ./internal/dsp/

test:
	$(GO) test ./...

# ./... includes internal/lint, so the race run also drives the lint
# fixture harness and the parallel package loader (checkDAG workers)
# under the race detector.
race:
	$(GO) test -race ./...

# perfbench is its own module (perfbench/go.mod), so ./... above skips
# its unit tests; run them from inside the module.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Short benchmark sweep: the streaming gateway pipeline, the kernel
# micro-benchmarks and the cheap figure benchmarks (each a scaled-down
# committed config under experiments/). One iteration each — a smoke test
# that the benches run, not a measurement (use bench-gateway for numbers).
bench:
	$(GO) test -run '^$$' -bench 'GatewayStream|PreambleScanDownchirp|FFT1024|FFT4096|ForwardWindowed1024|ForwardWindowedPrefix1024|IntersectFold1024|DFTBin1024|SearchFineGridPair1024|BinProbe1024|DechirpAndFold|MustPlanParallel|CICSymbol|Fig12to14|Fig15|Fig17|Fig19to20|Fig22to26|Fig27|Fig38' -benchtime=1x ./ ./internal/dsp/

# Measured gateway streaming throughput at 1/4/GOMAXPROCS workers;
# baselines recorded in BENCH_gateway.json.
bench-gateway:
	$(GO) test -run '^$$' -bench 'GatewayStream' -benchtime=5x ./

# Re-record BENCH_gateway.json from five measured runs: the gateway
# streaming benchmark (including the instrumentation-overhead
# sub-benchmark, which asserts the <=2% budget at >=10 iterations whenever
# the host is quiet enough to resolve it) and the down-chirp preamble
# scan, piped through cic-bench, which records each row's median with its
# fastest and slowest run.
bench-json:
	$(GO) test -run '^$$' -bench 'GatewayStream|PreambleScanDownchirp' -benchtime=10x -count=5 ./ | $(GO) run ./cmd/cic-bench -out BENCH_gateway.json \
		-description "Streaming ingest throughput through the Gateway's pipelined decode path on a 3-packet-collision trace, and the down-chirp preamble scan over a 3-packet collision (make bench-json)."

# Re-record the full benchmark matrix: the gateway streaming record
# (bench-json) plus the DSP kernel record, each row the median of five
# runs. Run on the machine whose
# numbers you intend to commit; the records embed the host environment.
bench-matrix: bench-json
	$(GO) test -run '^$$' -bench 'FFT4096|ForwardWindowed1024|ForwardWindowedPrefix1024|IntersectFold1024|DFTBin1024|DFTBinPair1024|SearchFineGridPair1024|BinProbe1024' -benchtime=1000x -count=5 ./internal/dsp/ | \
		$(GO) run ./cmd/cic-bench -out BENCH_dsp.json \
		-benchmark "DSP kernels" \
		-description "FFT kernel micro-benchmarks: radix-4 forward transform, fused windowed transform, ICSS-like prefix windowed transforms, one ICSS boundary's fused fold-and-intersect steps, Goertzel fractional-bin DTFT, its two-image pair probe, one two-image fine-grid search, and the candidate-bin SED probe (make bench-matrix)."

# Regression gate against the committed records: allocs/op must stay
# within max(+10%, +5) of BENCH_gateway.json / BENCH_dsp.json. Alloc
# counts are deterministic, so this is CI-safe; wall-clock numbers are
# informational only (see scripts/bench_gate.sh).
bench-gate:
	./scripts/bench_gate.sh

# Short fuzz passes over every byte-level parser that faces untrusted
# input: the cf32 reader and the cic-gatewayd frame/handshake parsers.
# Go allows one -fuzz target per invocation, hence one run per target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCF32$$' -fuzztime $(FUZZTIME) ./
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzParseHello$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzPublishLineFraming$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzFaultConnFraming$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzFaultTwoHop$$' -fuzztime $(FUZZTIME) ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBenchLine$$' -fuzztime $(FUZZTIME) ./cmd/cic-bench/
	$(GO) test -run '^$$' -fuzz '^FuzzParseExperimentConfig$$' -fuzztime $(FUZZTIME) ./internal/experiment/

# Chaos end-to-end suite: concurrent sessions under seeded fault
# schedules (forced disconnects, decode panics, process-restart resume)
# must produce record-identical NDJSON vs a fault-free run, and the
# cluster suite does the same across a sharded fleet (backend kills,
# partitions, rebalances mid-collision). The seed matrix is fixed
# inside the tests so runs are reproducible. TestGatewayStagePanic
# injects a panic at each of the Gateway's fault sites.
chaos:
	$(GO) test -race -run '^TestGatewayStagePanic$$' -count=1 .
	$(GO) test -race -run '^TestChaos' -count=1 ./internal/server/ ./internal/cluster/

# Loopback end-to-end smoke of the ingestion pipeline:
# cic-gen capture → cic-feed → cic-gatewayd → NDJSON assert (plus a
# cic-decode cross-check). See scripts/smoke.sh.
smoke:
	./scripts/smoke.sh

# Declarative experiment harness smoke: the committed downscaled config
# (experiments/smoke.json) end-to-end, including a kill mid-matrix whose
# journal resume must aggregate byte-identically. See
# scripts/experiments_smoke.sh.
experiments-smoke:
	./scripts/experiments_smoke.sh

# Regenerate every committed figure CSV in results/ from its config
# under experiments/. Deterministic: identical invocations reproduce the
# files byte-for-byte (≈20 min; the throughput/detection sweeps dominate).
results:
	for c in spectra heisenberg cancellation clutter maps snr ablation \
	         temporal throughput detection; do \
		$(GO) run ./cmd/cic-experiments -config experiments/$$c.json -outdir results -quiet || exit 1; \
	done

# Decode byte-identity against a base revision: builds cic-gen and
# cic-decode at BASE (git archive under .bench_build/) and from this
# checkout, and cmp's output on three check captures in five modes:
# default, -workers 1, -workers 2 -chunk 1000, -workers 2 -chunk 1048576
# and -workers 1 at GOMAXPROCS=1. Not part of ci (minutes, and it needs
# BASE). See scripts/decode_parity.sh.
decode-parity:
	@test -n "$(BASE)" || { echo "usage: make decode-parity BASE=<rev>" >&2; exit 2; }
	./scripts/decode_parity.sh $(BASE)

ci: vet lint build cross dsp-v3 race perfbench-test bench bench-gate fuzz chaos smoke experiments-smoke
