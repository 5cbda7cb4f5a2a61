#!/bin/sh
# End-to-end smoke test of the msc_cli tool: generate a topology, sample
# pairs, solve with two algorithms, evaluate and route the returned
# placement. Exercises the full file-format round trip a user would.
set -eu

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" gen --type rg --nodes 60 --radius 0.25 --seed 3 --out "$WORK/g.txt"
grep -q "^60$" "$WORK/g.txt" || { echo "FAIL: node header"; exit 1; }

"$CLI" pairs --graph "$WORK/g.txt" --pt 0.14 --m 8 --seed 2 \
       --out "$WORK/p.txt"
PAIRS=$(grep -vc '^#' "$WORK/p.txt")
[ "$PAIRS" -eq 8 ] || { echo "FAIL: pair count $PAIRS"; exit 1; }

OUT=$("$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
        --pt 0.14 --k 3 --algo aa)
echo "$OUT" | grep -q "maintained:" || { echo "FAIL: solve aa"; exit 1; }
PLACEMENT=$(echo "$OUT" | sed -n 's/^placement: //p')
[ -n "$PLACEMENT" ] || { echo "FAIL: no placement"; exit 1; }

"$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
       --pt 0.14 --k 3 --algo aea --iters 50 | grep -q "maintained:" \
  || { echo "FAIL: solve aea"; exit 1; }

"$CLI" eval --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
       --placement "$PLACEMENT" | grep -q "sigma = " \
  || { echo "FAIL: eval"; exit 1; }

"$CLI" route --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
       --placement "$PLACEMENT" | grep -q "p_fail" \
  || { echo "FAIL: route"; exit 1; }

# Metrics export: solve --metrics-out writes JSON with solver counters.
"$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
       --pt 0.14 --k 3 --algo aa --metrics-out "$WORK/m.json" \
  | grep -q "wrote metrics" || { echo "FAIL: metrics-out"; exit 1; }
grep -q '"schema": "msc.metrics.v1"' "$WORK/m.json" \
  || { echo "FAIL: metrics schema"; exit 1; }
grep -q '"sigma.calls": [1-9]' "$WORK/m.json" \
  || { echo "FAIL: sigma.calls missing/zero"; exit 1; }
grep -q '"dijkstra.runs": [1-9]' "$WORK/m.json" \
  || { echo "FAIL: dijkstra.runs missing/zero"; exit 1; }
grep -q '"sandwich.gain_evals.mu": [1-9]' "$WORK/m.json" \
  || { echo "FAIL: per-bound gain evals missing"; exit 1; }

# MSC_METRICS=1 prints a text footer on stdout.
MSC_METRICS=1 "$CLI" eval --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
       --pt 0.14 --placement "$PLACEMENT" | grep -q "dijkstra.runs" \
  || { echo "FAIL: MSC_METRICS footer"; exit 1; }

# Prometheus export: --metrics-prom writes text exposition with counter
# and histogram series; validate format invariants with python3 when
# available (bucket monotonicity, _count/_sum consistency).
"$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
       --pt 0.14 --k 3 --algo aa --metrics-prom "$WORK/m.prom" \
  | grep -q "wrote prometheus metrics" \
  || { echo "FAIL: metrics-prom"; exit 1; }
grep -q '^msc_dijkstra_runs_total [1-9]' "$WORK/m.prom" \
  || { echo "FAIL: prom counter missing"; exit 1; }
grep -q '^msc_apsp_build_seconds_bucket{le="+Inf"}' "$WORK/m.prom" \
  || { echo "FAIL: prom histogram missing"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/m.prom" <<'PYEOF' || { echo "FAIL: prom format invalid"; exit 1; }
import re, sys
from collections import defaultdict

buckets = defaultdict(list)   # metric -> [(le, count)] in file order
counts, sums, types = {}, {}, {}
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ", 3)
        types[name] = kind
        continue
    if line.startswith("#"):
        continue
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', line)
    assert m, f"malformed sample line: {line!r}"
    name, labels, value = m.groups()
    if name.endswith("_bucket"):
        le = re.search(r'le="([^"]+)"', labels or "").group(1)
        buckets[name[:-len("_bucket")]].append((le, int(value)))
    elif name.endswith("_count"):
        counts[name[:-len("_count")]] = int(value)
    elif name.endswith("_sum"):
        sums[name[:-len("_sum")]] = float(value)

assert buckets, "no histogram series found"
for metric, series in buckets.items():
    assert types.get(metric) == "histogram", f"{metric} lacks TYPE histogram"
    assert series[-1][0] == "+Inf", f"{metric}: missing le=+Inf bucket"
    les = [float("inf") if le == "+Inf" else float(le) for le, _ in series]
    assert les == sorted(les), f"{metric}: le boundaries not increasing"
    cs = [c for _, c in series]
    assert cs == sorted(cs), f"{metric}: bucket counts not cumulative"
    assert metric in counts and metric in sums, f"{metric}: _count/_sum missing"
    assert cs[-1] == counts[metric], \
        f"{metric}: +Inf bucket {cs[-1]} != _count {counts[metric]}"
    assert counts[metric] == 0 or sums[metric] > 0, \
        f"{metric}: _sum inconsistent with _count"
print(f"validated {len(buckets)} histogram(s), {len(counts)} series")
PYEOF
fi

# MSC_METRICS_PROM exports at exit without any explicit flag.
MSC_METRICS_PROM="$WORK/m2.prom" "$CLI" eval --graph "$WORK/g.txt" \
       --pairs "$WORK/p.txt" --pt 0.14 --placement "$PLACEMENT" >/dev/null
grep -q '^msc_apsp_build_seconds_count [1-9]' "$WORK/m2.prom" \
  || { echo "FAIL: MSC_METRICS_PROM export"; exit 1; }

# MSC_LOG=info writes structured JSONL request logs.
printf '%s\n' '{"id":1,"cmd":"health"}' '{"id":2,"cmd":"shutdown"}' \
  | MSC_LOG=info MSC_LOG_FILE="$WORK/serve_log.jsonl" "$CLI" serve \
  > /dev/null || { echo "FAIL: serve with MSC_LOG"; exit 1; }
grep -q '"event":"serve.request"' "$WORK/serve_log.jsonl" \
  || { echo "FAIL: no structured request log"; exit 1; }
grep -q '"cmd":"health"' "$WORK/serve_log.jsonl" \
  || { echo "FAIL: health request not logged"; exit 1; }

# Trace export: solve --trace-out writes Chrome trace-event JSON that a
# standard parser accepts and that carries solver timeline events.
"$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
       --pt 0.14 --k 3 --algo aa --trace-out "$WORK/t.json" \
  | grep -q "wrote trace" || { echo "FAIL: trace-out"; exit 1; }
grep -q '"schema": "msc.trace.v1"' "$WORK/t.json" \
  || { echo "FAIL: trace schema"; exit 1; }
grep -q '"name": "sandwich.total"' "$WORK/t.json" \
  || { echo "FAIL: trace missing sandwich events"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$WORK/t.json" \
    || { echo "FAIL: trace JSON does not parse"; exit 1; }
fi

# A .jsonl extension selects the flat JSONL exporter.
"$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
       --pt 0.14 --k 3 --algo aa --trace-out "$WORK/t.jsonl" >/dev/null
head -1 "$WORK/t.jsonl" | grep -q '^{.*"msc.trace.v1".*}$' \
  || { echo "FAIL: trace JSONL shape"; exit 1; }

# MSC_TRACE=1 prints a summary footer on stdout.
MSC_TRACE=1 "$CLI" eval --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
       --pt 0.14 --placement "$PLACEMENT" | grep -q "thread lane" \
  || { echo "FAIL: MSC_TRACE footer"; exit 1; }

# Error handling: unknown command, missing flag, unknown flag, and a
# non-integer value all exit non-zero.
if "$CLI" frobnicate 2>/dev/null; then echo "FAIL: bad cmd"; exit 1; fi
if "$CLI" solve --pt 0.14 2>/dev/null; then echo "FAIL: bad flags"; exit 1; fi
if "$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
     --bogus 1 2>/dev/null; then echo "FAIL: unknown flag"; exit 1; fi
if "$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
     --k 3x 2>/dev/null; then echo "FAIL: trailing garbage int"; exit 1; fi
if "$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
     --k 3 --trace-ou "$WORK/t2.json" 2>/dev/null; then
  echo "FAIL: misspelled --trace-ou accepted"; exit 1
fi
# Placements and pair files are parsed strictly: a malformed node id or a
# trailing token on a pair line is an error, not a silent truncation.
RC=0
"$CLI" eval --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
  --placement 0x-1y > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 1 ] || { echo "FAIL: placement 0x-1y exited $RC, not 1"; exit 1; }
printf '1 2 junk\n' > "$WORK/p_junk.txt"
RC=0
"$CLI" eval --graph "$WORK/g.txt" --pairs "$WORK/p_junk.txt" --pt 0.14 \
  --placement "$PLACEMENT" > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 1 ] || { echo "FAIL: pair line '1 2 junk' exited $RC, not 1"; exit 1; }

# version lists every machine-readable schema.
VERSION=$("$CLI" version)
for schema in msc.metrics.v1 msc.trace.v1 msc.serve.v1; do
  echo "$VERSION" | grep -q "$schema" \
    || { echo "FAIL: version missing $schema"; exit 1; }
done
echo "$VERSION" | grep -q 'usage.oracle' \
  || { echo "FAIL: version missing usage.oracle additions"; exit 1; }
echo "$VERSION" | grep -q 'MSC_ORACLE_ROWS_MB' \
  || { echo "FAIL: version missing MSC_ORACLE_ROWS_MB knob"; exit 1; }

# Serve round-trip: a JSONL script through `msc_cli serve` — health probe,
# load the instance, solve cold, solve warm (must be an APSP cache hit),
# stats, a Prometheus metrics scrape, a profiled solve (which must dump a
# flight record), shutdown. Responses are validated with python3 when
# available, with a grep fallback otherwise.
cat > "$WORK/serve_script.jsonl" <<EOF
{"id":1,"cmd":"load_graph","path":"$WORK/g.txt","as":"g"}
{"id":2,"cmd":"load_pairs","path":"$WORK/p.txt","as":"p"}
{"id":3,"cmd":"solve","graph":"g","pairs":"p","p_t":0.14,"algo":"greedy","k":3,"threads":1,"seed":1}
{"id":4,"cmd":"solve","graph":"g","pairs":"p","p_t":0.14,"algo":"greedy","k":3,"threads":1,"seed":1}
{"id":5,"cmd":"stats"}
{"id":6,"cmd":"health"}
{"id":7,"cmd":"metrics"}
{"id":8,"cmd":"solve","graph":"g","pairs":"p","p_t":0.14,"algo":"greedy","k":3,"threads":1,"seed":1,"profile":true}
{"id":9,"cmd":"shutdown"}
EOF
MSC_SLOWREQ_DIR="$WORK/slow" \
  "$CLI" serve < "$WORK/serve_script.jsonl" > "$WORK/serve_out.jsonl" \
  || { echo "FAIL: serve exited non-zero"; exit 1; }
RESPONSES=$(wc -l < "$WORK/serve_out.jsonl")
[ "$RESPONSES" -eq 9 ] || { echo "FAIL: serve replied $RESPONSES/9"; exit 1; }
grep -q '"apsp_cache":"hit"' "$WORK/serve_out.jsonl" \
  || { echo "FAIL: warm solve missed the APSP cache"; exit 1; }
grep -q '"ready":true' "$WORK/serve_out.jsonl" \
  || { echo "FAIL: health probe not ready"; exit 1; }
grep -q '"usage":{' "$WORK/serve_out.jsonl" \
  || { echo "FAIL: solve responses carry no usage block"; exit 1; }
grep -q '"phases":{' "$WORK/serve_out.jsonl" \
  || { echo "FAIL: usage block carries no per-phase attribution"; exit 1; }
# The profiled solve (id 8) dumps a Perfetto-loadable flight record into
# MSC_SLOWREQ_DIR, named after the request id.
[ -s "$WORK/slow/slowreq_8.trace.json" ] \
  || { echo "FAIL: profile:true produced no flight record"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$WORK/slow/slowreq_8.trace.json" > /dev/null \
    || { echo "FAIL: flight record is not valid JSON"; exit 1; }
  grep -q '"request.phases"' "$WORK/slow/slowreq_8.trace.json" \
    || { echo "FAIL: flight record lacks the phase lane"; exit 1; }
  python3 - "$WORK/serve_out.jsonl" <<'PYEOF' || { echo "FAIL: serve responses invalid"; exit 1; }
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert len(lines) == 9
by_id = {r["id"]: r for r in lines}
assert all(r["schema"] == "msc.serve.v1" for r in lines)
assert all(by_id[i]["status"] == "ok" for i in range(1, 10))
assert by_id[3]["apsp_cache"] == "miss" and by_id[4]["apsp_cache"] == "hit"
assert by_id[3]["placement"] == by_id[4]["placement"]
assert by_id[3]["gain_evals"] > 0
assert by_id[5]["cache"]["apsp_hits"] >= 1
assert by_id[5]["request_seconds"]["count"] >= 4
assert "obs_counters" in by_id[5]
assert by_id[6]["ready"] is True and by_id[6]["state"] == "ready"
assert by_id[7]["format"] == "prometheus-text-0.0.4"
assert "msc_serve_request_seconds_bucket" in by_id[7]["prometheus"]
# Per-request attribution: every solve carries a usage block whose
# execution phases (everything but queue_wait) sum to wall_seconds
# within 5%, and whose gain_evals echoes the top-level count.
for i in (3, 4, 8):
    usage = by_id[i]["usage"]
    assert usage["gain_evals"] == by_id[i]["gain_evals"]
    assert usage["cpu_seconds"] >= 0
    phases = usage["phases"]
    assert set(phases) == {"queue_wait", "apsp", "round_scan", "other"}
    exec_seconds = sum(v for k, v in phases.items() if k != "queue_wait")
    wall = by_id[i]["wall_seconds"]
    assert abs(exec_seconds - wall) <= 0.05 * wall + 1e-6, \
        f"id {i}: phases {exec_seconds} vs wall {wall}"
assert by_id[3]["usage"]["phases"]["apsp"] > 0      # cold APSP build
assert by_id[8]["usage"]["trace_file"].endswith("slowreq_8.trace.json")
assert "trace_file" not in by_id[3]["usage"]        # no profile, no dump
print(by_id[3]["placement"])
PYEOF
fi

# The same script with every exit footer switched on: serve's stdout is
# the reply stream, so the metrics and trace footers and the Prometheus
# export note go to stderr and every stdout line stays one msc.serve.v1
# object.
MSC_METRICS=1 MSC_TRACE=1 MSC_METRICS_PROM="$WORK/serve_exit.prom" \
  MSC_SLOWREQ_DIR="$WORK/slow_footer" \
  "$CLI" serve < "$WORK/serve_script.jsonl" > "$WORK/serve_footer.jsonl" \
  2> "$WORK/serve_footer.err" \
  || { echo "FAIL: serve with exit footers exited non-zero"; exit 1; }
RESPONSES=$(wc -l < "$WORK/serve_footer.jsonl")
[ "$RESPONSES" -eq 9 ] \
  || { echo "FAIL: serve with exit footers wrote $RESPONSES/9 lines"; exit 1; }
if grep -v '^{.*"schema":"msc.serve.v1".*}$' "$WORK/serve_footer.jsonl"; then
  echo "FAIL: serve stdout carries a non-reply line"; exit 1
fi
grep -q -- '---- metrics (MSC_METRICS=1) ----' "$WORK/serve_footer.err" \
  || { echo "FAIL: serve metrics footer missing from stderr"; exit 1; }
grep -q -- '---- trace (MSC_TRACE=1) ----' "$WORK/serve_footer.err" \
  || { echo "FAIL: serve trace footer missing from stderr"; exit 1; }
grep -q 'prometheus metrics written to' "$WORK/serve_footer.err" \
  || { echo "FAIL: serve Prometheus export note missing from stderr"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/serve_footer.jsonl" <<'PYEOF' || { echo "FAIL: serve stdout is not one reply per line"; exit 1; }
import json, sys
for line in open(sys.argv[1]):
    reply = json.loads(line)
    assert isinstance(reply, dict) and reply["schema"] == "msc.serve.v1", line
PYEOF
fi

# The serve path must produce the exact placement the direct CLI does at
# equal {algo, k, threads, seed}.
SERVE_PLACEMENT=$(sed -n 's/.*"placement":"\([^"]*\)".*"status":"ok".*/\1/p' \
  "$WORK/serve_out.jsonl" | head -1)
DIRECT_PLACEMENT=$("$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" \
  --pt 0.14 --k 3 --algo greedy --threads 1 --seed 1 \
  | sed -n 's/^placement: //p')
[ -n "$SERVE_PLACEMENT" ] || { echo "FAIL: no serve placement"; exit 1; }
[ "$SERVE_PLACEMENT" = "$DIRECT_PLACEMENT" ] \
  || { echo "FAIL: serve '$SERVE_PLACEMENT' != direct '$DIRECT_PLACEMENT'"; \
       exit 1; }

# Monte-Carlo objective (docs/ALGORITHMS.md §17): solve-mc maximizes the
# sampled multi-path reliability; the serve `solve` command reaches the
# same engine via "objective":"mc_reliability" and must return the exact
# placement the direct CLI does at equal {algo, k, threads, seed, worlds}.
# A sparse ring-like topology: the dense RG above is already saturated
# under multi-path reliability (every placement scores full sigma-hat),
# so shortcuts would carry no gain and greedy would place nothing.
"$CLI" gen --type ws --nodes 40 --neighbors 1 --prob 0.1 --seed 4 \
       --out "$WORK/ws.txt"
"$CLI" pairs --graph "$WORK/ws.txt" --pt 0.14 --m 6 --seed 2 \
       --out "$WORK/wsp.txt"
MC_OUT=$("$CLI" solve-mc --graph "$WORK/ws.txt" --pairs "$WORK/wsp.txt" \
        --pt 0.14 --k 3 --algo greedy --worlds 64 --threads 1 --seed 1)
echo "$MC_OUT" | grep -q "sigma-hat" || { echo "FAIL: solve-mc"; exit 1; }
echo "$MC_OUT" | grep -q "uncertain pairs" \
  || { echo "FAIL: solve-mc uncertainty line"; exit 1; }
MC_PLACEMENT=$(echo "$MC_OUT" | sed -n 's/^placement: //p')
[ -n "$MC_PLACEMENT" ] && [ "$MC_PLACEMENT" != "(empty)" ] \
  || { echo "FAIL: no solve-mc placement"; exit 1; }
cat > "$WORK/serve_mc.jsonl" <<EOF
{"id":1,"cmd":"load_graph","path":"$WORK/ws.txt","as":"g"}
{"id":2,"cmd":"load_pairs","path":"$WORK/wsp.txt","as":"p"}
{"id":3,"cmd":"solve","graph":"g","pairs":"p","p_t":0.14,"objective":"mc_reliability","algo":"greedy","k":3,"worlds":64,"threads":1,"seed":1}
{"id":4,"cmd":"shutdown"}
EOF
"$CLI" serve < "$WORK/serve_mc.jsonl" > "$WORK/serve_mc_out.jsonl" \
  || { echo "FAIL: mc serve exited non-zero"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/serve_mc_out.jsonl" "$MC_PLACEMENT" <<'PYEOF' || { echo "FAIL: mc serve reply invalid"; exit 1; }
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
solve = next(r for r in lines if r["id"] == 3)
assert solve["status"] == "ok"
assert solve["objective"] == "mc_reliability"
assert solve["worlds"] == 64
assert solve["uncertain_pairs"] >= 0
assert solve["value"] >= 0
assert solve["placement"] == sys.argv[2], \
    f'serve {solve["placement"]!r} != direct {sys.argv[2]!r}'
PYEOF
else
  grep -q '"objective":"mc_reliability"' "$WORK/serve_mc_out.jsonl" \
    || { echo "FAIL: mc serve reply lacks objective echo"; exit 1; }
  grep -q "\"placement\":\"$MC_PLACEMENT\"" "$WORK/serve_mc_out.jsonl" \
    || { echo "FAIL: mc serve placement != direct solve-mc"; exit 1; }
fi
echo "$VERSION" | grep -q 'mc_reliability' \
  || { echo "FAIL: version missing mc_reliability objective"; exit 1; }

# Oracle telemetry (docs/ALGORITHMS.md §16): a pair-centric solve reports
# its distance-oracle query mix in usage.oracle and exports the matching
# Prometheus series; re-running under a tiny row budget
# (MSC_ORACLE_ROWS_MB=1) must evict rows yet produce the identical
# placement — eviction is memory-only, never visible in results.
"$CLI" gen --type ba --nodes 4000 --attach 2 --seed 5 --out "$WORK/big.txt"
: > "$WORK/bigp.txt"
i=0
while [ "$i" -lt 20 ]; do
  echo "$i $((3999 - i))" >> "$WORK/bigp.txt"
  i=$((i + 1))
done
cat > "$WORK/serve_oracle.jsonl" <<EOF
{"id":1,"cmd":"load_graph","path":"$WORK/big.txt","as":"g","distance_mode":"pair_centric"}
{"id":2,"cmd":"load_pairs","path":"$WORK/bigp.txt","as":"p"}
{"id":3,"cmd":"solve","graph":"g","pairs":"p","p_t":0.14,"algo":"greedy","k":3,"threads":1,"seed":1}
{"id":4,"cmd":"metrics"}
{"id":5,"cmd":"shutdown"}
EOF
MSC_METRICS=1 "$CLI" serve < "$WORK/serve_oracle.jsonl" \
  > "$WORK/oracle_out.jsonl" \
  || { echo "FAIL: pair-centric serve exited non-zero"; exit 1; }
grep -q '"oracle":{' "$WORK/oracle_out.jsonl" \
  || { echo "FAIL: pair-centric solve reports no usage.oracle"; exit 1; }
grep -q '"row_builds":[1-9]' "$WORK/oracle_out.jsonl" \
  || { echo "FAIL: usage.oracle reports no row builds"; exit 1; }
# The row-based solve path never runs a point-query search, so only the
# always-present counter is asserted here.
grep -q '"alt_queries":' "$WORK/oracle_out.jsonl" \
  || { echo "FAIL: usage.oracle lacks the ALT query counter"; exit 1; }
grep -q 'msc_serve_oracle_rows [1-9]' "$WORK/oracle_out.jsonl" \
  || { echo "FAIL: metrics lack a nonzero oracle row gauge"; exit 1; }
grep -q 'msc_serve_oracle_queries_total{kind=..point..} [0-9]' \
  "$WORK/oracle_out.jsonl" \
  || { echo "FAIL: oracle point-query series not registered"; exit 1; }
PC_PLACEMENT=$(sed -n 's/.*"placement":"\([^"]*\)".*/\1/p' \
  "$WORK/oracle_out.jsonl" | head -1)
[ -n "$PC_PLACEMENT" ] || { echo "FAIL: no pair-centric placement"; exit 1; }
MSC_ORACLE_ROWS_MB=1 "$CLI" serve < "$WORK/serve_oracle.jsonl" \
  > "$WORK/oracle_evict.jsonl" \
  || { echo "FAIL: row-budgeted serve exited non-zero"; exit 1; }
grep -q '"rows_evicted":[1-9]' "$WORK/oracle_evict.jsonl" \
  || { echo "FAIL: tiny row budget evicted nothing"; exit 1; }
EVICT_PLACEMENT=$(sed -n 's/.*"placement":"\([^"]*\)".*/\1/p' \
  "$WORK/oracle_evict.jsonl" | head -1)
[ "$EVICT_PLACEMENT" = "$PC_PLACEMENT" ] \
  || { echo "FAIL: eviction changed the placement"; exit 1; }

# Backpressure: with --queue 1 and the executor held by a sleep, a burst
# must get at least one structured "overloaded" reply (and one per line).
cat > "$WORK/serve_burst.jsonl" <<EOF
{"id":1,"cmd":"sleep","ms":300}
{"id":2,"cmd":"stats"}
{"id":3,"cmd":"stats"}
{"id":4,"cmd":"stats"}
{"id":5,"cmd":"stats"}
{"id":6,"cmd":"shutdown"}
EOF
"$CLI" serve --queue 1 < "$WORK/serve_burst.jsonl" > "$WORK/burst_out.jsonl" \
  || { echo "FAIL: serve burst exited non-zero"; exit 1; }
grep -q '"status":"overloaded"' "$WORK/burst_out.jsonl" \
  || { echo "FAIL: no overloaded reply with --queue 1"; exit 1; }
BURST=$(wc -l < "$WORK/burst_out.jsonl")
[ "$BURST" -eq 6 ] || { echo "FAIL: burst replied $BURST/6"; exit 1; }

# Live solve introspection (docs/ALGORITHMS.md §18): --progress prints a
# stderr ticker without touching stdout (results must be byte-identical).
# The exit footers stay off here: they carry timings and --progress's own
# progress.* counters, which differ between the two runs by design.
MSC_METRICS=0 MSC_TRACE=0 \
  "$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
       --k 3 --algo greedy --progress > "$WORK/prog_out.txt" \
       2> "$WORK/prog_err.txt" \
  || { echo "FAIL: solve --progress exited non-zero"; exit 1; }
grep -q '^progress greedy round [1-9]' "$WORK/prog_err.txt" \
  || { echo "FAIL: --progress printed no ticker lines"; exit 1; }
MSC_METRICS=0 MSC_TRACE=0 \
  "$CLI" solve --graph "$WORK/g.txt" --pairs "$WORK/p.txt" --pt 0.14 \
       --k 3 --algo greedy > "$WORK/noprog_out.txt" 2>/dev/null
cmp -s "$WORK/prog_out.txt" "$WORK/noprog_out.txt" \
  || { echo "FAIL: --progress changed solve stdout"; exit 1; }

# Serve progress streaming: a solve with a "progress" param emits
# {"event":"progress",...} notification lines before its final reply, and
# deadline/cancel requests come back as structured anytime statuses.
cat > "$WORK/serve_prog.jsonl" <<EOF
{"id":1,"cmd":"load_graph","path":"$WORK/g.txt","as":"g"}
{"id":2,"cmd":"load_pairs","path":"$WORK/p.txt","as":"p"}
{"id":3,"cmd":"solve","graph":"g","pairs":"p","p_t":0.14,"algo":"greedy","k":3,"threads":1,"seed":1,"progress":{"every_ms":0}}
{"id":4,"cmd":"sleep","ms":5000,"deadline_seconds":0.05}
{"id":5,"cmd":"shutdown"}
EOF
"$CLI" serve < "$WORK/serve_prog.jsonl" > "$WORK/prog_serve.jsonl" \
  || { echo "FAIL: progress serve exited non-zero"; exit 1; }
EVENTS=$(grep -c '"event":"progress"' "$WORK/prog_serve.jsonl")
[ "$EVENTS" -ge 2 ] \
  || { echo "FAIL: progress solve emitted $EVENTS events (< 2)"; exit 1; }
grep -q '"status":"deadline_exceeded"' "$WORK/prog_serve.jsonl" \
  || { echo "FAIL: deadline_seconds did not fire"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$WORK/prog_serve.jsonl" <<'PYEOF' || { echo "FAIL: progress events invalid"; exit 1; }
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
events = [l for l in lines if l.get("event") == "progress"]
replies = [l for l in lines if "status" in l]
assert len(events) >= 2
for i, ev in enumerate(events):
    assert ev["schema"] == "msc.serve.v1"
    assert ev["id"] == 3
    assert ev["solver"] == "greedy"
    assert ev["seq"] == i + 1 and ev["round"] == i + 1
    assert ev["gain_evals"] > 0 and ev["value"] >= 0
# All events precede the solve's final reply on the stream.
solve_at = next(i for i, l in enumerate(lines)
                if l.get("id") == 3 and "status" in l)
assert all(lines.index(ev) < solve_at for ev in events)
solve = lines[solve_at]
assert solve["status"] == "ok"
assert solve["usage"]["progress"]["events"] == len(events)
dl = next(r for r in replies if r["id"] == 4)
assert dl["status"] == "deadline_exceeded"
assert dl["usage"]["cancelled"] == "deadline"
assert dl["usage"]["deadline_seconds"] == 0.05
PYEOF
fi
echo "$VERSION" | grep -q 'deadline_seconds' \
  || { echo "FAIL: version missing deadline_seconds addition"; exit 1; }
echo "$VERSION" | grep -q 'cancel' \
  || { echo "FAIL: version missing cancel command"; exit 1; }

# Malformed serve input gets a structured error, not a crash.
printf '%s\n' '{broken' '{"id":9,"cmd":"shutdown"}' \
  | "$CLI" serve > "$WORK/serve_err.jsonl" \
  || { echo "FAIL: serve crashed on bad input"; exit 1; }
grep -q '"status":"error"' "$WORK/serve_err.jsonl" \
  || { echo "FAIL: no structured serve error"; exit 1; }

echo "cli smoke OK"
