# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-fast bench-json par-smoke obs-smoke sym-smoke fault-smoke fuzz-smoke ooc-smoke table3-cell journal-smoke engine-smoke resume-smoke serve-smoke bench-smoke examples artifacts clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-fast:
	CCR_BENCH_FAST=1 dune exec bench/main.exe

# Fast bench run that also emits per-row JSON (states/transitions/time/mem
# per protocol x n x level x jobs) next to the repo root.
bench-json:
	CCR_BENCH_FAST=1 CCR_BENCH_JSON=BENCH_$$(date +%Y%m%d).json dune exec bench/main.exe

# Quick seq-vs-par equivalence check (the par_explore suite only), with
# backtraces on so a worker-domain failure is attributable.
par-smoke:
	OCAMLRUNPARAM=b dune exec test/test_main.exe -- test par_explore

# Observability layer: unit suite, CLI cram checks, and a live run of
# every flag against a real protocol.
obs-smoke:
	dune build @all
	dune exec test/test_main.exe -- test obs
	dune build @test/cram/runtest
	dune exec bin/ccr.exe -- check invalidate -n 2 --level async \
	  --progress --trace /tmp/ccr-obs-smoke-trace.json --metrics-json -

# Symmetry reduction: unit suite (canonicalizer properties, quotient
# count equality vs the brute oracle at jobs 1/2/4), the --symmetry cram
# checks, a live quotient run past the old n! cliff, and the Table 3
# invalidate n=4 quotient pinned to its exact counts with no fallback, at
# -j 1 and at -j 2 (two domains sharing one component table).
sym-smoke:
	dune build @all
	dune exec test/test_main.exe -- test symmetry
	dune build @test/cram/runtest
	dune exec bin/ccr.exe -- check migratory -n 7 --level async --symmetry auto
	dune exec bin/ccr.exe -- check invalidate -n 4 --level async \
	  --metrics-json /tmp/ccr-sym-smoke.json \
	  | grep -q '): 77965 states, 304853 transitions,'
	grep -q '"canon.fallbacks": 0,' /tmp/ccr-sym-smoke.json
	dune exec bin/ccr.exe -- check invalidate -n 4 --level async -j 2 \
	  --metrics-json /tmp/ccr-sym-smoke-j2.json \
	  | grep -q '): 77965 states, 304853 transitions,'
	grep -q '"canon.fallbacks": 0,' /tmp/ccr-sym-smoke-j2.json

# Fault model: unit suite, the --faults cram checks, then the headline
# demonstration live — the vanilla refinement must FAIL (exit 2, with a
# starvation counterexample) under one dropped ack, and the hardened
# variant must absorb the same budget cleanly.
fault-smoke:
	dune build @all
	dune exec test/test_main.exe -- test faults
	dune build @test/cram/runtest
	! dune exec bin/ccr.exe -- check migratory -n 2 --faults drop=1@ack
	dune exec bin/ccr.exe -- check migratory -n 2 --faults drop=1@ack --harden
	dune exec bin/ccr.exe -- run migratory -n 2 --budget 20 --faults drop=1,dup=1 --harden --seed 3

# Differential fuzzer: unit suite (PRNG pins, codecs, shrinker, driver),
# the fuzz/eq1 cram checks, then a fixed-seed 100-instance campaign — all
# oracles must pass; any failure shrinks to a .ccr repro under /tmp.
fuzz-smoke:
	dune build @all
	dune exec test/test_main.exe -- test fuzz
	dune build @test/cram/runtest
	dune exec bin/ccr.exe -- fuzz --seed 0 --count 100 --max-states 8000 \
	  --out-dir /tmp/ccr-fuzz-smoke

# Storage: the store unit suite, then live — the memory-cliff headline
# (the disk store completes migratory n=5 under a 3 MB cap, at ~2.1 MB,
# which the mem store's ~4.6 MB blows through) and the disk store under
# two domain shards, whose counts must match the one-shard run's.
ooc-smoke:
	dune build @all
	dune exec test/test_main.exe -- test store
	! dune exec bin/ccr.exe -- check migratory -n 5 --level async \
	  --symmetry off --mem 3 --max-states 2000000 2>/dev/null
	dune exec bin/ccr.exe -- check migratory -n 5 --level async \
	  --symmetry off --mem 3 --max-states 2000000 --store disk \
	  | grep -q '139418 states'
	dune exec bin/ccr.exe -- check migratory -n 4 --level async \
	  --symmetry off --store disk -j 2 \
	  | grep -q '16129 states, 58516 transitions'

# Table 3's last async cell, at the paper's 64 MB: invalidate n=6 with
# the quotient and the disk store must complete under --mem 64 at its
# exact counts.  About 35-45 s, so it is not part of `dune runtest`.
table3-cell:
	dune build bin/ccr.exe
	./_build/default/bin/ccr.exe check invalidate -n 6 --level async \
	  --symmetry auto --store disk --mem 64 --max-states 100000000 \
	  > /tmp/ccr-table3-cell.out
	grep -q '2252626 states, 13346634 transitions' /tmp/ccr-table3-cell.out
	grep -q 'outcome: complete' /tmp/ccr-table3-cell.out

# Loop engine: unit suite (rings, registry-wide trace replay through the
# interpreter), the run cram checks, then live — a sharded run, a
# hardened fault soak at engine rates, and the engine fuzz oracle.
engine-smoke:
	dune build @all
	dune exec test/test_main.exe -- test engine
	dune build @test/cram/runtest
	dune exec bin/ccr.exe -- run lock -n 4 --budget 2000 -j 2
	dune exec bin/ccr.exe -- run migratory -n 2 --budget 200 \
	  --faults drop=10,dup=10 --harden --seed 3
	dune exec bin/ccr.exe -- fuzz --seed 0 --count 40 --oracles engine \
	  --no-matrix

# Provenance journal & run reports: unit suites, the journal cram
# checks, then live — a journalled check, the rule-annotated starvation
# witness of the fault-model headline, and a report over the artifacts.
journal-smoke:
	dune build @all
	dune exec test/test_main.exe -- test journal
	dune exec test/test_main.exe -- test obs
	dune build @test/cram/journal
	rm -rf /tmp/ccr-journal-smoke && mkdir -p /tmp/ccr-journal-smoke
	dune exec bin/ccr.exe -- check migratory -n 2 --level async --prov mem \
	  --journal /tmp/ccr-journal-smoke/check.jsonl
	dune exec bin/ccr.exe -- explain migratory -n 2 --faults drop=1@ack --violation
	dune exec bin/ccr.exe -- fuzz --seed 0 --count 30 \
	  --journal /tmp/ccr-journal-smoke/fuzz.jsonl
	dune exec bin/ccr.exe -- report /tmp/ccr-journal-smoke

# Crash-safe checkpoint/resume: the unit suite (torn-write refusal,
# per-store and per-domain-count resume pins, the strict CCR_CRASH_AT
# parse), the resume fuzz oracle, then live — runs SIGKILLed
# mid-exploration by CCR_CRASH_AT, resumed from their checkpoints and
# required to land on the uninterrupted pin (invalidate async n=3:
# 9263 states / 27191 transitions) at one and at two domains, with the
# in-memory and the disk store; once more without symmetry (18207 /
# 53352), where the visited and frontier keys are component ids written
# to the checkpoint as full keys and read back on resume; under a
# dropped ack (22675 / 66726, a starvation verdict: exit 2, so its kill
# is checked as SIGKILL's 137), whose frontier holds fault-injected keys;
# and at the rendezvous level (347 / 909).
resume-smoke:
	dune build @all
	dune exec test/test_main.exe -- test ckpt
	dune exec bin/ccr.exe -- fuzz --seed 0 --count 25 --oracles resume \
	  --no-matrix
	rm -rf /tmp/ccr-resume-smoke && mkdir -p /tmp/ccr-resume-smoke
	! CCR_CRASH_AT=level=14 dune exec bin/ccr.exe -- check invalidate -n 3 \
	  --level async --checkpoint /tmp/ccr-resume-smoke/seq 2>/dev/null
	dune exec bin/ccr.exe -- check invalidate -n 3 --level async \
	  --resume /tmp/ccr-resume-smoke/seq \
	  | grep -q '9263 states, 27191 transitions'
	! CCR_CRASH_AT=level=14 dune exec bin/ccr.exe -- check invalidate -n 3 \
	  --level async -j 2 --checkpoint /tmp/ccr-resume-smoke/par 2>/dev/null
	dune exec bin/ccr.exe -- check invalidate -n 3 --level async -j 2 \
	  --resume /tmp/ccr-resume-smoke/par \
	  | grep -q '9263 states, 27191 transitions'
	! CCR_CRASH_AT=level=14 dune exec bin/ccr.exe -- check invalidate -n 3 \
	  --level async -j 2 --store disk \
	  --checkpoint /tmp/ccr-resume-smoke/disk 2>/dev/null
	dune exec bin/ccr.exe -- check invalidate -n 3 --level async -j 2 \
	  --store disk --resume /tmp/ccr-resume-smoke/disk \
	  | grep -q '9263 states, 27191 transitions'
	! CCR_CRASH_AT=level=14 dune exec bin/ccr.exe -- check invalidate -n 3 \
	  --level async --symmetry off --store disk \
	  --checkpoint /tmp/ccr-resume-smoke/ids 2>/dev/null
	dune exec bin/ccr.exe -- check invalidate -n 3 --level async \
	  --symmetry off --store disk --resume /tmp/ccr-resume-smoke/ids \
	  | grep -q '18207 states, 53352 transitions'
	CCR_CRASH_AT=level=14 dune exec bin/ccr.exe -- check invalidate -n 3 \
	  --level async --faults drop=1@ack \
	  --checkpoint /tmp/ccr-resume-smoke/faults 2>/dev/null; test $$? = 137
	dune exec bin/ccr.exe -- check invalidate -n 3 --level async \
	  --faults drop=1@ack --resume /tmp/ccr-resume-smoke/faults \
	  | grep -q '22675 states, 66726 transitions'
	! CCR_CRASH_AT=level=5 dune exec bin/ccr.exe -- check invalidate -n 3 \
	  --level rendezvous --checkpoint /tmp/ccr-resume-smoke/rv 2>/dev/null
	dune exec bin/ccr.exe -- check invalidate -n 3 --level rendezvous \
	  --resume /tmp/ccr-resume-smoke/rv \
	  | grep -q '347 states, 909 transitions'

# Checking service: the black-box conformance suite (forked daemons over
# loopback), the serve fuzz oracle (daemon verdicts must byte-match the
# in-process checker, warm hits must come from the cache), the client
# cram session, then live — a daemon on an ephemeral port answering a
# cold submission by exploration and the resubmission from its cache.
serve-smoke:
	dune build @all
	dune exec test/test_main.exe -- test serve
	dune build @test/cram/serve
	dune exec bin/ccr.exe -- fuzz --seed 0 --count 30 --oracles serve \
	  --no-matrix
	rm -rf /tmp/ccr-serve-smoke && mkdir -p /tmp/ccr-serve-smoke
	./_build/default/bin/ccr.exe serve --port 0 \
	  --port-file /tmp/ccr-serve-smoke/port \
	  --cache-dir /tmp/ccr-serve-smoke/cache & \
	pid=$$!; \
	for i in $$(seq 1 150); do \
	  test -s /tmp/ccr-serve-smoke/port && break; sleep 0.1; done; \
	./_build/default/bin/ccr.exe client submit invalidate -n 2 --wait \
	  --port $$(cat /tmp/ccr-serve-smoke/port) | grep -q '"cached":false' && \
	./_build/default/bin/ccr.exe client submit invalidate -n 2 --wait \
	  --port $$(cat /tmp/ccr-serve-smoke/port) | grep -q '"cached":true'; \
	status=$$?; kill -TERM $$pid; wait $$pid; exit $$status

# Benchmark smoke: every perfbench workload once, for about a second
# each.  run.py exits 0 even when a workload's pinned counts are wrong, so
# its result lines are checked here: there must be four, and each must
# read "correct": true with "failed": 0.
bench-smoke:
	python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 \
	  > /tmp/ccr-bench-smoke.out
	python3 -c 'import json, sys; \
	rs = [json.loads(l) for l in open(sys.argv[1]) if l.startswith("{")]; \
	bad = [r for r in rs if r.get("correct") is not True or r.get("failed") != 0]; \
	print("bench-smoke: %d result lines, %d not correct" % (len(rs), len(bad))); \
	sys.exit(1 if len(rs) != 4 or bad else 0)' /tmp/ccr-bench-smoke.out

examples:
	dune exec examples/quickstart.exe
	dune exec examples/migratory_demo.exe
	dune exec examples/invalidate_demo.exe
	dune exec examples/starvation_demo.exe
	dune exec examples/concurrent_demo.exe
	dune exec examples/msc_demo.exe

artifacts:
	dune exec examples/codegen_demo.exe -- _artifacts

clean:
	dune clean
