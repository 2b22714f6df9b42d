GO ?= go

.PHONY: all build test race vet fmt-check difftest-imports verify test-cache test-update test-trace test-filter test-union test-benchmark serve-smoke examples fuzz-smoke loc bench bench-smoke bench-join

# The default target is the full tier-1 verification, race detector included.
all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# difftest-imports fails if any package imports the differential-testing
# kit (internal/difftest) from a non-test file. The kit is test support:
# only _test.go files may use it, which is why `make loc` leaves it out.
difftest-imports:
	@bad=$$($(GO) list -f '{{range .Imports}}{{if eq . "repro/internal/difftest"}}{{$$.ImportPath}} {{end}}{{end}}' ./...); \
	if [ -n "$$bad" ]; then \
		echo "non-test code imports repro/internal/difftest: $$bad"; exit 1; \
	fi

# verify is the one-command gate: build, static checks (the difftest
# import rule included), and the test suite under the race detector
# (which includes the cross-query cache tests — see test-cache for the
# focused subset).
verify: build vet fmt-check difftest-imports race

# test-cache runs just the caching test surface under -race: the MatCache
# unit tests, the store-level concurrent differential + invalidation
# harness, the cache-stressing differential regressions, the sharing of a
# pattern across UNION branches through first-touch admission
# (TestUnionBranchesShareThroughMatCache), the prepared-query memo's
# concurrent, worker-identity, bound, admission, allocation and
# write-retirement tests (TestQueryMemo*), and the server's
# result-cache/gzip tests (the pooled gzip writers' reuse after an
# abandoned response and under concurrent hits and misses, and the
# allocation-free Accept-Encoding negotiation among them). The full `make` covers all of these too; this
# target is the fast loop while working on the cache layers.
test-cache:
	$(GO) test -race -count=1 \
		-run 'TestMatCache|TestCrossQueryCache|TestCacheInvalidation|TestEffectiveCacheBudget|TestDifferentialCacheRegressions|TestUnionBranchesShareThroughMatCache|TestQueryMemo|TestResultCache|TestGzip|TestAcceptsGzip' \
		./internal/engine ./internal/server .

# test-update runs the write-path test surface under -race: SPARQL Update
# semantics and the differential update oracle, an S-O join through a
# term that an uncompacted insert gave its second role (engine and
# baseline), WAL crash recovery, MVCC
# snapshot isolation, overlay-vs-rebuild equivalence, the update parser,
# the server's update endpoint/ETag tests, the bulk load (its
# equivalence to AddAll-then-Build, its races with Add/Query/Build, and
# the golden snapshot digest), and the lock-free read path (every read
# returns while a writer holds the store lock, read-your-writes, and the
# snapshot span describing the snapshot a query ran on), and a result's
# lifetime (a Result first read after an update and a compaction still
# resolves to its own snapshot's rows, and concurrent readers of one
# Result resolve it once, race-free), and the identity of a literal
# holding invalid UTF-8 (it stays distinct from its U+FFFD twin in a
# built store's delta and through WAL replay, and its N-Triples line
# parses back to the same triple). The full `make` covers all of these
# too; this target is the fast loop while working on writes.
test-update:
	$(GO) test -race -count=1 \
		-run 'TestApplyUpdate|TestUpdate|TestSecondRoleJoin|TestAutoCompact|TestWAL|TestOverlay|TestExtend|TestParseUpdate|TestETag|TestMetricsSnapshotGeneration|TestStoreMutation|TestLoadNTriples|TestSaveIndexGoldenDigest|TestReadsDoNotWaitForWriter|TestSnapshotSpanMatchesQueryView|TestResultLifetime|TestInvalidUTF8|TestQuickNTriplesLineRoundTrip' \
		./internal/rdf ./internal/bitmat ./internal/sparql ./internal/server .

# test-trace runs the observability test surface under -race: every test
# of internal/trace (the span tree, nil safety, the nil-tracer allocation
# pin, concurrent children, the query hash), the store-level
# traced-vs-untraced differential suite (byte identity across worker
# counts, span row-count accounting, the disabled-tracing overhead bound,
# slow-query log), and the server's explain/metrics/Prometheus tests,
# among them the byte pin of both /metrics views over a fixed request
# sequence (TestMetricsHistogramViewsPinned). The
# full `make` covers all of these too; this target is the fast loop while
# working on tracing.
test-trace:
	$(GO) test -race -count=1 ./internal/trace
	$(GO) test -race -count=1 \
		-run 'TestQueryTrace|TestDisabledTracing|TestSlowQuery|TestExplain|TestMetrics|TestPrometheus' \
		./internal/server .

# test-filter runs the FILTER-expression test surface under -race: the
# golden operator-semantics table (asserted against the engine evaluator
# AND the reference oracle), the engine's evaluator unit tests, filter
# safety/substitution analysis, the store-level worker filter sweep, the
# route-agreement suite (TestRouteAgreement: its cheap-filter-best-match
# probe checks the join sink's re-injection of a substituted filter
# binding on both routes, against the reference evaluator), and the
# server's unsupported-filter/filter-span tests. The full `make` covers
# all of these too; this target is the fast loop while working on the
# expression evaluator.
test-filter:
	$(GO) test -race -count=1 \
		-run 'TestFilterGoldenTable|TestEvalFilter|TestCompareTerms|TestRefFilter|TestCheckSafeFilters|TestSubstituteCheap|TestPlaceFilters|TestDifferentialFilterWorkerSweep|TestRouteAgreement|TestUnsupportedFilter|TestSupportedFilterCore|TestExplainFilterSpan' \
		./internal/engine ./internal/ref ./internal/algebra ./internal/planner ./internal/server .

# test-union runs the UNION/OPTIONAL minimum-union test surface under
# -race: the engine's best-match/dedup unit tests, the witnessless-union
# regression tables (engine-level and store-level worker sweeps, both
# vs the reference evaluator) and their
# no-leak pins (synthetic witness columns must never surface in results,
# streams, or EXPLAIN), the random union worker sweep, and the in-order
# branch loop: its per-branch cancellation and the sharing of a recurring
# pattern across branches through the MatCache (TestUnionBranch*), and
# the route-agreement probes (TestRouteAgreement), among them a variable
# one UNION arm binds in a predicate position and the other in a subject
# or object one, under DISTINCT and best-match: one IRI must be one cell.
# The full `make` covers all of these too; this target is the fast loop
# while working on the rule-3 rewrite, the collapse passes or the branch
# loop.
test-union:
	$(GO) test -race -count=1 \
		-run 'TestBestMatch|TestDedupNull|TestWitnesslessUnion|TestDifferentialWitnesslessUnionRegressions|TestDifferentialUnionWorkerSweep|TestUnionBranch|TestRouteAgreement' \
		./internal/engine ./internal/algebra .

# test-benchmark vets and tests the benchmark module (benchmark/, its own
# go.mod, outside the root `go test ./...`): statistics, seeded schedules,
# the --compare verdicts, BENCHMARK.json consistency, and a tiny in-process
# pass of every workload. The measured run is `bash benchmark/run.sh`.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# serve-smoke boots the real lbrserver binary on an ephemeral port, runs a
# content-negotiated SPARQL Protocol query over HTTP, and asserts the JSON
# body (see scripts/serve_smoke.sh).
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# examples runs every program under examples/ once; `go build ./...`
# only compiles them. A non-zero exit of any of them fails the target.
EXAMPLES = pipeline proteins quickstart social university
examples:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e > /dev/null || { echo "examples/$$e failed"; exit 1; }; \
	done

# fuzz-smoke runs the four fuzzers briefly — long enough to replay the
# seed corpora and mutate around them, short enough for CI:
# FuzzQueryDifferential (engine vs the naive reference evaluator, across
# worker counts and delta overlays), FuzzUpdateDifferential (update
# streams through the delta-overlay store vs the reference applier, across
# compaction and cold rebuild), FuzzMatrixOps (op streams over the
# condensed BitMat vs a map of its set bits) and FuzzResultEscapers (the
# result writers' JSON and XML escapers vs json.Marshal and
# xml.EscapeText, and rdf.Term.Append vs a byte-wise N-Triples escaper). The query fuzzer draws its graphs from
# the differential-testing kit (internal/difftest, difftest.Graph), and
# the shapes it once found by luck are now grammar productions of the
# kit, swept deterministically by TestDifferentialProductionSweep; the
# fuzzers remain the net for what the grammar cannot express. Local deep
# runs: go test ./internal/engine -run='^$' -fuzz=FuzzQueryDifferential
# (or . -fuzz=FuzzUpdateDifferential). 30s gives the mutator room to reach
# the expression-shaped inputs the filter seeds grow. -fuzzminimizetime=1s
# bounds the minimization of each new input: Go's default of 60s per
# input can use up most of a 30s budget, as it did for FuzzMatrixOps,
# which then ran at 0 execs/s for its last 13s.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/engine -run='^$$' -fuzz=FuzzQueryDifferential -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test . -run='^$$' -fuzz=FuzzUpdateDifferential -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/bitmat -run='^$$' -fuzz=FuzzMatrixOps -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/results -run='^$$' -fuzz=FuzzResultEscapers -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s

# loc prints the non-test Go line count outside the benchmark module and
# the test-only differential kit (internal/difftest, held to test-only
# use by difftest-imports), the number a deletion is measured by.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:benchmark/**' ':!:internal/difftest/**' | xargs wc -l | tail -n 1

# bench regenerates the paper's evaluation tables at the default scales.
bench:
	$(GO) run ./cmd/lbrbench -table all

# bench-smoke runs every paper table (6.1-6.4, index sizes, ablations,
# the selectivity crossover) at the smallest scales, once. lbrbench
# cross-checks LBR against both baselines on every query and exits
# non-zero, naming the dataset and query, if any two disagree.
bench-smoke:
	$(GO) run ./cmd/lbrbench -table all -lubm-univ 1 -uniprot-proteins 200 -dbpedia-entities 400 -runs 1

# bench-join runs the join's Go benchmarks with -benchmem: the collected
# star-with-OPTIONAL query (BenchmarkJoinCollect, its time and its
# allocations per query), the directory cursor against Row's binary search
# (BenchmarkMatrixSeek), the row selection's mask-density sweep on both
# sides of its seek cut-over (BenchmarkUnfoldRows, BenchmarkCloneRows),
# the compressed-row kernels (BenchmarkRow*), and a repeated selective
# query served from the prepared-query memo against its first touch on a
# fresh engine (BenchmarkQueryPrologue), and the four result writers over
# 5 000 five-column rows with escapes and unbound cells, per row
# (BenchmarkWriterRow/{json,xml,csv,tsv}: ns/row and allocs/row). CI runs
# it with BENCHTIME=1x, once each, so they keep compiling and running.
BENCHTIME ?= 1s
bench-join:
	$(GO) test -run='^$$' -bench='^Benchmark(JoinCollect|MatrixSeek|UnfoldRows|CloneRows|Row|QueryPrologue|WriterRow)' -benchmem -benchtime=$(BENCHTIME) \
		./internal/engine ./internal/bitmat ./internal/bitvec ./internal/results
