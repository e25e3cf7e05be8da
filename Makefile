# Tier-1 verification plus the extra checks CI runs. Go only; no
# external tools required (staticcheck is fetched through the module
# proxy when reachable and skipped otherwise).

GO ?= go
STATICCHECK_VERSION ?= 2023.1.7
STATICCHECK := $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

.PHONY: ci verify vet staticcheck lint lint-fixtures race fuzz-smoke bench bench-smoke bench-scale bench-tenants bench-heat clean

# Everything CI gates on.
ci: verify vet staticcheck lint race fuzz-smoke bench-smoke bench-scale bench-tenants bench-heat

# Tier-1: the whole tree must build and every test must pass.
verify:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Pinned staticcheck, probed first so an offline machine (no module
# proxy) degrades to a warning instead of a hard failure; when the probe
# succeeds, findings fail the build as usual.
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck: module proxy unreachable, skipping (pin: $(STATICCHECK_VERSION))"; \
	fi

# In-tree static analysis (internal/lint via cmd/colloidlint): eleven
# typed checks enforcing the determinism and convention contracts — no
# wall clocks, global math/rand, env reads or unsorted map iteration on
# simulation paths, "<pkg>: " diagnostic prefixes, stats.RNG-only seed
# flow, obs name grammar, no by-value lock copies, no loop-var/RNG
# capture into goroutines, no references to Deprecated: identifiers, no
# stale suppressions, no order-dependent float folds. Stdlib-only, so
# unlike staticcheck it runs even with no module proxy. Findings are
# diffed against the committed lint.baseline.json (kept empty: fix or
# //colloid:allow <check> <reason>, don't baseline). The `|| { ...;
# exit 1; }` tail re-asserts the failure explicitly so the nonzero exit
# survives `make -k`/`make ci` composition instead of scrolling past.
lint:
	@$(GO) run ./cmd/colloidlint -json -baseline lint.baseline.json ./... || { \
		echo "lint: non-baselined findings above; fix them (do not grow lint.baseline.json)" >&2; \
		exit 1; \
	}

# Fast iteration loop for check development: only the lint engine's own
# tests (fixture golden file, injected-violation probes, driver flags).
lint-fixtures:
	$(GO) test ./internal/lint/ ./cmd/colloidlint/

# Race-detector pass over the parallel experiment runner, the engine,
# the scenario/fault-injection subsystem, the migration engine, the
# page index, (since the sharded per-quantum pipeline) the access
# sampler/tracker and the shard harness, the multi-tenant cluster
# engine, the region-granularity heat tracker, and the root sharded
# golden and churn tests. -short skips the long shape tests but not
# the runner's parallel-vs-serial determinism tests or the
# sharded-step path.
race:
	$(GO) test -race -short ./internal/experiments/ ./internal/sim/ ./internal/scenario/ ./internal/migrate/ ./internal/pages/ ./internal/access/ ./internal/shard/ ./internal/tenant/ ./internal/heat/
	$(GO) test -race -short -run 'TestShardedChurnBitIdentical|TestGoldenPlacementTraces|TestGoldenTenantTraces' .

# A fixed short run of every native fuzz target: the scenario
# validator and the differential oracles guarding the map-free HeMem hot
# path (dense OrderedSet vs a map-indexed model, HeMem's shared-index
# bins vs per-bin sets plus a map, the sampler's guide-table lookup vs
# sort.SearchFloat64s). Plain `go test` already replays the committed
# seed corpora under testdata/fuzz; this explores beyond them. `-fuzz`
# takes one package per run, hence one line per target.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioValidate$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzOrderedSet$$' -fuzztime $(FUZZTIME) ./internal/access/
	$(GO) test -run '^$$' -fuzz '^FuzzGuideSearch$$' -fuzztime $(FUZZTIME) ./internal/access/
	$(GO) test -run '^$$' -fuzz '^FuzzBinSet$$' -fuzztime $(FUZZTIME) ./internal/hemem/

# Headline figure metrics as benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# One-iteration smoke of the instrumentation-overhead benchmark: proves
# the obs plumbing still runs end to end without paying for a full
# benchstat-quality measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench=ObsOverhead -benchtime=1x .

# One-iteration smoke of the page-granularity scaling pipeline: the
# quantum-step benchmark at 10^4 pages swept across the sharded worker
# axis, plus the quick scale experiment through the standard runner.
# For real numbers use
# `go test -bench=ScaleQuantumStep -benchtime=30x .` (10^6-page arm
# included).
bench-scale:
	$(GO) test -run '^$$' -bench='ScaleQuantumStep/pages=10000/|^BenchmarkScale$$' -benchtime=1x .

# One-iteration smoke of the multi-tenant cluster: the quick tenants
# experiment (8 tenants, both arbitration policies, heat modes exact +
# qos — the latter runs region/64 and region/1024 trackers, so the
# coarse-tracking seam is exercised — plus the 10^6-page scale arm)
# through the standard runner. For real numbers run
# `go run ./cmd/colloidsim -exp tenants` (100 tenants x 10^5 pages,
# full heat axis, 10^8-page scale arm).
bench-tenants:
	$(GO) test -run '^$$' -bench='^BenchmarkTenants$$' -benchtime=1x .

# One-iteration smoke of the heat-tracking family: the quick fidelity
# ablation (exact vs region granularities 1/4/64/1024 plus a chained
# forecaster) and the region-tracker scale arm through the standard
# runner. For real numbers run `go run ./cmd/colloidsim -exp heat`
# (2^24-page scale arm).
bench-heat:
	$(GO) test -run '^$$' -bench='^BenchmarkHeat$$' -benchtime=1x .

clean:
	rm -f BENCH_*.json
