#!/bin/sh
# Tier-1 verification, mechanically: what every PR must keep green.
# Usage: ./ci.sh
set -eu

# Scratch files live in one private directory, removed however the run
# ends, so parallel checkouts cannot collide and a failing step leaves
# nothing behind.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The bench subcommands check their own gates on the values they
# measure, print a FAIL line with the readings and exit 1 on a miss;
# each also archives its BENCH_<name>.json.

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== ape verify (APE vs SPICE differential gate) =="
dune exec bin/ape.exe -- verify --golden test/golden

echo "== prepared-solve AC equivalence (entry points bitwise, 1e-8 of the dense oracle) =="
dune exec test/test_spice.exe -- test prepared

echo "== observability bit-identity (obs on/off, pool jobs 1 vs N) =="
dune exec test/test_obs.exe -- test bit-identity

echo "== ape stats --json CI artifact (verify workload) =="
dune exec bin/ape.exe -- stats --workload verify --quick --json > ape_stats.json
grep -q '"schema": "ape-obs/1"' ape_stats.json
echo "wrote ape_stats.json"

echo "== observability overhead gate (<= 2% on the 181-point sweep) =="
dune exec bench/main.exe -- obs-overhead

echo "== ape synth determinism (3 chains: jobs 1 vs jobs 3, fixed seed) =="
# Wall time and cache hit counts legitimately vary with scheduling; every
# other line (result, evaluations, exchange counts, sized values) must be
# bit-identical whatever the worker count.
dune exec bin/ape.exe -- synth --gain 200 --ugf 2meg --seed 7 --chains 3 --jobs 1 \
  | grep -v '^time:' | grep -v '^cache:' > "$tmp"/synth_jobs1.txt
dune exec bin/ape.exe -- synth --gain 200 --ugf 2meg --seed 7 --chains 3 --jobs 3 \
  | grep -v '^time:' | grep -v '^cache:' > "$tmp"/synth_jobs3.txt
diff "$tmp"/synth_jobs1.txt "$tmp"/synth_jobs3.txt

echo "== parallel-tempering bench (>= 2x time-to-target at 4 chains) =="
dune exec bench/main.exe -- anneal

echo "== ape serve smoke (30 jobs x 2 passes through one daemon) =="
dune exec bin/ape.exe -- serve --jobs 4 \
  examples/jobs/smoke30.jobs examples/jobs/smoke30.jobs > "$tmp"/serve_smoke.jsonl
# Exit 0 above already means no failed/unmet/overloaded record; assert it
# explicitly anyway, plus a warm cache on the second pass.
if grep -q '"status":"failed"\|"status":"parse-error"\|"status":"unmet"' \
    "$tmp"/serve_smoke.jsonl; then
  echo "FAIL: smoke batch produced failing records"; exit 1
fi
records=$(grep -c '"schema"' "$tmp"/serve_smoke.jsonl)
[ "$records" -eq 62 ] || { echo "FAIL: expected 62 records, got $records"; exit 1; }
hits=$(tail -n 1 "$tmp"/serve_smoke.jsonl | sed 's/.*"cache_hits":\([0-9]*\).*/\1/')
[ "$hits" -gt 0 ] || { echo "FAIL: second pass had no cache hits"; exit 1; }
echo "smoke OK: 62 records, second-pass cache hits $hits"

echo "== ape serve determinism (fixed-seed batch, jobs 1 vs jobs 3) =="
dune exec bin/ape.exe -- serve --deterministic --jobs 1 \
  examples/jobs/determinism.jobs > "$tmp"/serve_det1.jsonl
dune exec bin/ape.exe -- serve --deterministic --jobs 3 \
  examples/jobs/determinism.jobs > "$tmp"/serve_det3.jsonl
diff "$tmp"/serve_det1.jsonl "$tmp"/serve_det3.jsonl

echo "== serve bench (warm cache >= 2x cold-start-per-job) =="
dune exec bench/main.exe -- serve

echo "== sparse engine bench (>= 3x over the dense oracle on the 200-section ladder sweep) =="
dune exec bench/main.exe -- sparse

echo "== blocked sweep bench (>= 2x vs per-frequency at 200 sections) =="
dune exec bench/main.exe -- sweep

echo "== panel solver bit-identity (panel-vs-scalar, unstable lanes, panel widths incl. rc.sp) =="
dune exec test/test_sparse.exe -- test panel
dune exec test/test_sparse.exe -- test golden-decks

echo "== ape convert round-trip (fixpoint over the golden corpus) =="
# convert(a) -> b, convert(b) -> c: b and c must be byte-identical, and a
# clean deck must produce zero diagnostics on stderr.
for deck in test/golden/decks/*.sp examples/decks/two_stage.sp; do
  dune exec bin/ape.exe -- convert "$deck" --out "$tmp"/conv_b.sp \
    2> "$tmp"/conv_diag.txt
  [ -s "$tmp"/conv_diag.txt ] && {
    echo "FAIL: $deck produced diagnostics:"; cat "$tmp"/conv_diag.txt; exit 1; }
  dune exec bin/ape.exe -- convert "$tmp"/conv_b.sp --out "$tmp"/conv_c.sp
  diff "$tmp"/conv_b.sp "$tmp"/conv_c.sp \
    || { echo "FAIL: $deck does not reach a convert fixpoint"; exit 1; }
done
echo "convert fixpoint OK"

echo "== ape convert malformed corpus (exit 1 + span diagnostics) =="
for deck in test/golden/decks/bad/*.sp; do
  if dune exec bin/ape.exe -- convert "$deck" \
      > /dev/null 2> "$tmp"/conv_err.txt; then
    echo "FAIL: $deck was accepted"; exit 1
  fi
  grep -q "error:" "$tmp"/conv_err.txt \
    || { echo "FAIL: $deck produced no error diagnostic"; exit 1; }
done
echo "malformed corpus OK"

echo "== subckt flattening differential (hier vs hand-flat) =="
# The flattened example deck is the exact convert output of the
# hierarchical one, and both must simulate bit-identically.
dune exec bin/ape.exe -- convert examples/decks/two_stage.sp \
  > "$tmp"/flat_now.sp
diff examples/decks/two_stage_flat.sp "$tmp"/flat_now.sp \
  || { echo "FAIL: checked-in flat deck is stale; regenerate with ape convert"; exit 1; }
dune exec bin/ape.exe -- sim examples/decks/two_stage.sp --out out \
  --deterministic > "$tmp"/hier.txt
dune exec bin/ape.exe -- sim examples/decks/two_stage_flat.sp --out out \
  --deterministic > "$tmp"/flat.txt
diff "$tmp"/hier.txt "$tmp"/flat.txt \
  || { echo "FAIL: hier/flat mismatch"; exit 1; }
echo "hier/flat differential OK"

echo "== ape mc determinism (jobs 1 vs jobs 4) =="
dune exec bin/ape.exe -- mc opamp --gain 200 --ugf 2meg --samples 200 --jobs 1 \
  | grep -v '^Monte Carlo:' > "$tmp"/mc_jobs1.txt
dune exec bin/ape.exe -- mc opamp --gain 200 --ugf 2meg --samples 200 --jobs 4 \
  | grep -v '^Monte Carlo:' > "$tmp"/mc_jobs4.txt
diff "$tmp"/mc_jobs1.txt "$tmp"/mc_jobs4.txt

echo "== ape calibrate determinism (8-point grid, jobs 1 vs jobs 3) =="
# The card is fitted from Pool-mapped grid samples with per-point split
# RNG streams; the printed card must be byte-identical for any worker
# count.
dune exec bin/ape.exe -- calibrate --points 8 --seed 5 --jobs 1 \
  --out "$tmp"/card_jobs1.calib > /dev/null
dune exec bin/ape.exe -- calibrate --points 8 --seed 5 --jobs 3 \
  --out "$tmp"/card_jobs3.calib > /dev/null
diff "$tmp"/card_jobs1.calib "$tmp"/card_jobs3.calib

echo "== ape verify --calibration (calibrated run against the goldens) =="
# Golden tables persist the raw estimates, so a calibrated run must
# still match them; hardening guarantees no gated attribute worsens.
dune exec bin/ape.exe -- verify --calibration "$tmp"/card_jobs1.calib \
  --golden test/golden

echo "== calibration bench (calibrated catalog error <= raw) =="
dune exec bench/main.exe -- calib

echo "CI OK"
