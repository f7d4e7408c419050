# Development entry points. `make verify` is the gate CI runs.

CARGO ?= cargo

.PHONY: verify verify-bench verify-checkbench verify-par verify-rtl verify-spec verify-fuzz verify-clippy verify-lint verify-prove verify-obs build test doc bench bench-json clean

verify: ## release build + examples + full test suite + clean rustdoc + clippy -D warnings + benches and checkbench compile + parallel equivalence and speedup floor + RTL co-sim + spec pipeline + static-analysis gate + fuzz campaign + observability gate
	$(CARGO) build --release
	$(CARGO) build --examples
	$(CARGO) test -q
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps
	$(MAKE) verify-clippy
	$(MAKE) verify-bench
	$(MAKE) verify-checkbench
	$(MAKE) verify-par
	$(MAKE) verify-rtl
	$(MAKE) verify-spec
	$(MAKE) verify-lint
	$(MAKE) verify-prove
	$(MAKE) verify-fuzz
	$(MAKE) verify-obs

verify-spec: ## optimized == unoptimized: cesc-spec unit suite + the opt-equivalence property suite + the opt bench compiles
	$(CARGO) test -q -p cesc-spec
	$(CARGO) test -q --test opt_equivalence
	$(CARGO) bench -p cesc-bench --bench opt_throughput --no-run

verify-rtl: ## emitted RTL == engine: cesc-rtl unit tests + the co-simulation property suite + streaming and CLI --cosim + the rtl bench compiles + a release `check --cosim --jobs 4 --json` smoke over the generated 120k-step dump (no failure, an OK chart cosim object)
	$(CARGO) test -q -p cesc-rtl
	$(CARGO) test -q -p cesc-hdl
	$(CARGO) test -q --test rtl_cosim
	$(CARGO) test -q --test streaming_check cosim_mode
	$(CARGO) test -q --test cli cosim
	$(CARGO) bench -p cesc-bench --bench rtl_throughput --no-run
	$(CARGO) build --release --quiet
	$(CARGO) run --release --quiet --example fleet_obs_dump
	./target/release/cesc check target/obs_smoke.cesc --all-charts --vcd target/obs_smoke.vcd \
		--cosim --jobs 4 --json > target/cosim_smoke.json
	grep -q '"failed":false' target/cosim_smoke.json
	grep -q '"cosim":{"verdict":"ok"' target/cosim_smoke.json

verify-fuzz: ## differential fuzzing gate: cesc-fuzz unit suite, corpus replay, CLI/bus end-to-end smoke, then a 1,000-case deterministic campaign + panic-freedom sweeps (fixed seed, replayable)
	$(CARGO) test -q -p cesc-fuzz
	$(CARGO) test -q --test corpus_replay
	$(CARGO) test -q --test fuzz_campaign
	$(CARGO) run --release --quiet -- fuzz --cases 1000 --sweep-cases 1000 --seed 0xCE5CF022

verify-clippy: ## zero-warning clippy across the whole workspace, tests and benches included
	$(CARGO) clippy --workspace --all-targets -- -D warnings

verify-lint: ## static-analysis gate: the lint soundness property suite, then `cesc lint --deny` over the example specs and the generated bus-protocol library
	$(CARGO) test -q -p cesc-lint
	$(CARGO) test -q --test lint_soundness
	$(CARGO) build --release --quiet
	for f in examples/specs/*.cesc; do ./target/release/cesc lint $$f --deny || exit 1; done
	$(CARGO) run --release --quiet --example bus_library_spec > target/bus_library.cesc
	./target/release/cesc lint target/bus_library.cesc --deny

verify-prove: ## semantic static-analysis gate: guard-SAT / product-reachability / prover property suites, then `cesc prove` over every example spec carrying implies(...) asserts and the generated bus-protocol library (every assert must be discharged), + the prove bench compiles
	$(CARGO) test -q --test prove_properties
	$(CARGO) build --release --quiet
	for f in examples/specs/*.cesc; do \
		if grep -q 'implies(' $$f; then ./target/release/cesc prove $$f || exit 1; fi; \
	done
	$(CARGO) run --release --quiet --example bus_library_spec > target/bus_library.cesc
	./target/release/cesc prove target/bus_library.cesc
	$(CARGO) bench -p cesc-bench --bench prove_throughput --no-run

verify-obs: ## observability gate: cesc-obs unit suite + the cross-layer serial==sharded counter properties + a release `check --jobs 4 --stats-json` smoke over a generated 120k-step dump (schema, `execute` and `decode` spans, per-shard utilization, decoded blocks, read and fold time, idle-run skips)
	$(CARGO) test -q -p cesc-obs
	$(CARGO) test -q --test obs_stats
	$(CARGO) build --release --quiet
	$(CARGO) run --release --quiet --example fleet_obs_dump
	./target/release/cesc check target/obs_smoke.cesc --all-charts --vcd target/obs_smoke.vcd \
		--jobs 4 --stats --stats-json target/obs_smoke.json
	grep -q '"schema":"cesc-obs/1"' target/obs_smoke.json
	grep -q '"name":"execute"' target/obs_smoke.json
	grep -q '"name":"decode"' target/obs_smoke.json
	grep -q '"decode.blocks":' target/obs_smoke.json
	grep -q '"decode.fold_ns":' target/obs_smoke.json
	grep -q '"decode.read_ns":' target/obs_smoke.json
	grep -q '"engine.skip_ticks":' target/obs_smoke.json
	grep -q '"utilization":' target/obs_smoke.json

verify-bench: ## compile every bench without running it, so bench bit-rot fails tier-1 locally, and test the bench record tooling
	$(CARGO) bench -p cesc-bench --no-run
	python3 -m unittest discover -s crates/bench -p 'test_*.py'

verify-checkbench: ## build the end-to-end benchmark helper: checkbench/ is its own workspace, so a root build never compiles it
	$(CARGO) build --release --offline --manifest-path checkbench/Cargo.toml

verify-par: ## parallel==serial: cesc-par and cesc-trace unit tests (tiny-block decode == default-block decode) + the sharded equivalence/CLI/streaming suites (multi-shard execution forced by every test) + the zero-alloc hot-loop discipline, then the parallel bench with its JSON record held to fleet speedup >= 1.0
	$(CARGO) test -q -p cesc-par
	$(CARGO) test -q -p cesc-trace
	$(CARGO) test -q --test batch_equivalence
	$(CARGO) test -q --test cli fleet_
	$(CARGO) test -q --test streaming_check fleet_mode
	$(CARGO) test -q --test alloc_discipline
	$(CARGO) bench -p cesc-bench --bench parallel_throughput | grep '^{"bench":"parallel_throughput"' > target/par_record.json
	awk -F'"speedup":' 'NF > 1 { split($$2, a, /[,}]/); s = a[1] + 0; seen = 1 } \
		END { if (!seen) { print "FAIL no parallel_throughput record"; exit 1 } \
		printf "parallel_throughput speedup %.3f (floor 1.0)\n", s; exit !(s >= 1.0) }' target/par_record.json

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

bench: ## regenerate the evaluation numbers (criterion shim prints to stdout)
	$(CARGO) bench -p cesc-bench

bench-json: ## run every bench and append its one-line JSON trajectory records, tagged with the git revision, to BENCH_results.json (a JSON array)
	$(CARGO) bench -p cesc-bench | tee target/bench_raw.txt
	python3 crates/bench/append_results.py target/bench_raw.txt BENCH_results.json

clean:
	$(CARGO) clean
