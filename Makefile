# Convenience targets for the VideoPipe reproduction.

GO ?= go

.PHONY: all build vet meters lint check test race cover alloc bench chaos heal sandbox shapes fuzz experiments flood floodtune floodgate examples clean

all: build vet test

build:
	$(GO) build ./...

# Go-host static analysis. Cheap pre-steps first (gofmt, go vet), then the
# vpvet analyzer suite (framerelease, determinism, metername,
# lockdiscipline — see DESIGN.md "Static enforcement") over every package,
# then a staleness check of the generated meter registry. Exits non-zero
# on any finding; each step names itself on failure so a red `make check`
# points straight at the offending check.
vet:
	@unformatted=$$(gofmt -l . 2>/dev/null); if [ -n "$$unformatted" ]; then \
		echo "vet failed: gofmt (needs formatting):"; echo "$$unformatted"; exit 1; fi
	@$(GO) vet ./... || { echo "vet failed: go vet"; exit 1; }
	@$(GO) run ./cmd/vpvet ./... || { echo "vet failed: vpvet (findings above; suppress a false positive with //vpvet:allow <check> <reason>)"; exit 1; }
	@$(GO) run ./cmd/vpvet -check-meters ./... || { echo "vet failed: meter registry stale (run make meters)"; exit 1; }

# Regenerate the meter-name registry (internal/metrics/names.go) from
# every statically-visible Meter/Histogram/benchEntry.set name. Run after
# adding a metric; the metername analyzer and vpbench both check against
# the generated file.
meters:
	$(GO) run ./cmd/vpvet -write-meters ./...

# Static analysis: the Go-host suite above, then pipevet over every
# example pipeline config (module scripts + config cross-checks).
lint: vet
	@set -e; for cfg in examples/configs/*.cfg; do \
		$(GO) run ./cmd/videopipe -lint -config $$cfg || { echo "lint failed: pipevet on $$cfg"; exit 1; }; \
	done

# The pre-PR gate: everything that must be green before a change ships.
# `race` reruns the allocation-regression tests under the race detector
# (bounds logged, pool/scratch plumbing race-checked); `alloc` enforces
# the exact allocs/op bounds, which only hold without instrumentation.
# `race` also covers the heal, sandbox and shapes targets' tests, which
# stay as local targets for running one gate alone.
check: build lint alloc race

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation-regression gate: steady-state allocs/op on the frame codec
# and wire message paths must stay pinned (near zero) after the buffer
# pool / copy-elision work.
alloc:
	$(GO) test -run 'Allocs|ReleaseGuards' ./internal/frame ./internal/wire

cover:
	$(GO) test -cover ./...

# End-to-end resilience suite: seeded fault schedules against full
# pipelines, race detector on. Override the seed to replay a different
# (still deterministic) fault sequence.
VP_CHAOS_SEED ?= 1
chaos:
	VP_CHAOS_SEED=$(VP_CHAOS_SEED) $(GO) test -race -v -run 'TestChaos' .

# Self-healing gate: the supervised chaos e2e suite (recovery left wholly
# to the supervisor, exact journal assertions) plus the supervisor,
# migration, breaker and snapshot unit tests — all under the race
# detector with a pinned seed.
heal:
	VP_CHAOS_SEED=$(VP_CHAOS_SEED) $(GO) test -race -v -run 'TestChaos' .
	$(GO) test -race -run 'TestSupervisor|TestMigrate|TestBreaker|TestSnapshot' ./internal/core ./internal/services ./internal/script

# Sandbox-governance gate: budget enforcement, kill/quarantine/restart and
# the module-sabotage chaos scenarios (hostile code contained by the
# sandbox, healed by the supervisor), all under the race detector.
sandbox:
	$(GO) test -race -run 'TestBudget|TestPreservationVersion|TestSnapshotCarriesVersion|TestModuleBreach|TestModuleOutput|TestModuleRestore|TestParseConfigLimits|TestEffectiveLimits|TestValidateRejectsBadLimits|TestPV014|TestBuiltinAppsWithin|TestPipelineRestartModule' ./internal/script ./internal/device ./internal/core
	VP_CHAOS_SEED=$(VP_CHAOS_SEED) $(GO) test -race -v -run 'TestChaosResilience/(runaway_module|hog_module)' .

# Pipetype gate: the shape-inference golden corpora (unit, script-level
# and config-level) plus the edge-contract checks and the runtime
# soundness test (inferred ⊇ observed over every shipped module), all
# under the race detector.
shapes:
	$(GO) test -race -run 'TestShape' ./internal/script ./internal/core .

# Short coverage-guided fuzz pass over the PipeScript and config parsers
# plus the sandbox budget enforcer and the shape-inference pass (seed
# corpora alone run in `make test`).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzBudget -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzShapes -fuzztime 30s ./internal/script
	$(GO) test -fuzz FuzzParseConfig -fuzztime 30s ./internal/core

# One measurement window per benchmark; see EXPERIMENTS.md for canonical
# longer-window numbers.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=NONE .

# Regenerate every paper table/figure plus the ablations (takes ~3 min).
experiments:
	$(GO) run ./cmd/vpbench -exp all -dur 3s

# Saturation sweeps over every workload mix: open-loop knee finding with
# the canonical windows (EXPERIMENTS.md X4). Writes BENCH_flood.json.
flood:
	$(GO) run ./cmd/vpflood -sweep -mix all -dur 3s -out BENCH_flood.json

# Quick look at the tuner's effect: tuned-vs-untuned knee on the pose
# mix with short windows (EXPERIMENTS.md X5). The relaxed margin only
# rejects a tuner that actively hurts; use floodgate for the real bar.
floodtune:
	$(GO) run ./cmd/vpflood -tunediff -mix pose -dur 1500ms -tunemargin -0.25 -out ""

# Throughput-regression gate: a fresh tuned-vs-untuned sweep pair diffed
# against the checked-in baseline. Fails when any mix's knee (tuned or
# untuned) drops below the baseline by more than the tolerance, a
# knee-rung tail blows its absolute budget, or a tuned knee falls below
# its untuned knee by more than the margin. The margin floor is -5%, not
# 0: the scripted control mix's tuned gain (~+2%) sits inside run-to-run
# noise, and the gate's job there is "the tuner must not hurt", not "the
# tuner must win the coin flip". Override FLOOD_TOLERANCE /
# FLOOD_TUNEMARGIN for noisier machines (CI uses 0.5 / -0.25).
FLOOD_TOLERANCE ?= 0.15
FLOOD_TUNEMARGIN ?= -0.05
floodgate:
	$(GO) run ./cmd/vpflood -tunediff -mix all -dur 6s -out BENCH_flood.json \
		-gate BENCH_baseline.json -tolerance $(FLOOD_TOLERANCE) \
		-tunemargin $(FLOOD_TUNEMARGIN) -p999budget 600ms

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fitness -dur 4s
	$(GO) run ./examples/gesture -dur 4s
	$(GO) run ./examples/falldetect -dur 6s
	$(GO) run ./examples/securitycam -dur 6s

clean:
	rm -f fitness_display.png test_output.txt bench_output.txt vpbench_results.txt BENCH_results.json BENCH_flood.json
