#!/usr/bin/env python3
"""Bench-gate comparator for syzygy-slo CI.

Compares a freshly produced BENCH_table3.json against the checked-in
baseline (bench/baselines/BENCH_table3.json) and fails when simulated
first-level miss counts or speedup ratios drift beyond tolerance.

The simulator is deterministic — cycles and miss counts are simulation
results, not wall times — so the tolerances mainly guard against
intentional-but-unreviewed changes to the cache model, the workloads, or
the transformations. Wall-clock artifacts (BENCH_compile_time.json) are
checked for presence and schema only, never gated numerically.

A second leg gates BENCH_profile_quality.json (the sampled-PMU
advice-stability sweep): at the artifact's default sampling period,
planning from a sampled profile must select the identical transform set
as planning from the exact profile on every workload — advice_stable is
a hard invariant there, not a tolerance. The sweep is seeded and fully
simulated, so stability flags compare exactly against the baseline and
only tau/opt_misses get tolerances.

A third leg gates the execution engines against each other: given a
walker-engine and a vm-engine BENCH_table3.json from the same tree, the
VM must have produced bit-identical simulation rows (cycles, misses,
perf percentages — the VM is an optimization of the simulator's hot
loop, never of its results) while spending at least --min-speedup times
less simulator wall time. The engine field of each artifact is checked
literally, so a build that silently fell back to the walker cannot pass
the gate by comparing the walker against itself.

A fourth leg gates telemetry overhead on a `bench_service` artifact.
The bench runs a telemetry-on and a telemetry-free daemon in the same
process and alternates single requests between the two, so each
round's on/off QPS ratio is paired against identical machine load —
comparing two separate bench invocations instead confounds the tax with
drift between them (observed swings exceed the budget in both
directions). The gate requires the paired-ratio fields to be present (an
artifact cannot pass by omission), serve-equals-oneshot on BOTH
daemons, self-consistent daemon-side counts, and a median on/off QPS
ratio of at least (1 - --max-overhead) — the gate that keeps always-on
telemetry honest about its cost.

Usage:
  bench_compare.py --current BENCH_table3.json \
      [--baseline bench/baselines/BENCH_table3.json] \
      [--compile-time BENCH_compile_time.json] \
      [--profile-quality BENCH_profile_quality.json] \
      [--profile-quality-baseline bench/baselines/BENCH_profile_quality.json] \
      [--miss-tolerance 0.05] [--perf-tolerance 2.0] [--tau-tolerance 0.05]
  bench_compare.py --engine-compare WALKER.json VM.json [--min-speedup 2.5]
  bench_compare.py --service-overhead BENCH_service.json \
      [--max-overhead 0.05]   # artifact from bench_service
  bench_compare.py --self-test [--baseline ...] [--profile-quality-baseline ...]

--self-test injects a 10% miss-count regression into a copy of the
table3 baseline and an advice-stability flip (what a too-coarse sampling
period produces) into a copy of the profile-quality baseline, and
asserts the gate rejects both (and that the unmodified baselines pass);
CI runs it so a silently broken comparator cannot turn the gate green.
The engine leg self-tests on synthesized artifacts: a clean pair must
pass, and a wrong engine field, a single diverging row, and an
insufficient speedup must each be rejected. The overhead leg likewise:
a clean synthesized artifact must pass, and a missing paired
measurement, an over-budget ratio, an inconsistent daemon count, and a
diverged telemetry-off daemon must each be rejected.
"""

import argparse
import copy
import json
import sys


def load_json(path, what):
    """Reads a JSON artifact; any failure is a one-line error, never a
    traceback (a stale CI cache or a hand-edited baseline must produce a
    message a human can act on)."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise SystemExit(f"{path}: cannot read {what}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise SystemExit(
            f"{path}: malformed JSON in {what} "
            f"(line {e.lineno}, column {e.colno}: {e.msg})"
        )


def require_keys(row, keys, path, kind):
    """Every key the comparators index must exist up front; a missing one
    is a schema error named after the key, not a KeyError traceback."""
    for k in keys:
        if k not in row:
            raise SystemExit(f"{path}: {kind} record is missing key '{k}': {row}")


def load_rows(path):
    doc = load_json(path, "table3 artifact")
    if not isinstance(doc, dict) or doc.get("table") != "table3" \
            or "rows" not in doc:
        raise SystemExit(f"{path}: not a BENCH_table3.json artifact")
    rows = {}
    for row in doc["rows"]:
        require_keys(
            row,
            ("benchmark", "pbo", "base_misses", "opt_misses", "perf_percent"),
            path,
            "table3",
        )
        key = (row["benchmark"], bool(row["pbo"]))
        if key in rows:
            raise SystemExit(f"{path}: duplicate row for {key}")
        rows[key] = row
    return rows


def rel_drift(base, cur):
    if base == 0:
        return 0.0 if cur == 0 else float("inf")
    return abs(cur - base) / base


def compare(baseline, current, miss_tol, perf_tol):
    """Returns a list of human-readable failure strings (empty = pass)."""
    failures = []
    for key in baseline:
        if key not in current:
            failures.append(f"{key[0]} (pbo={key[1]}): row missing from current run")
    for key in current:
        if key not in baseline:
            failures.append(
                f"{key[0]} (pbo={key[1]}): new row not in baseline "
                "(regenerate bench/baselines/BENCH_table3.json)"
            )
    for key, base in sorted(baseline.items()):
        cur = current.get(key)
        if cur is None:
            continue
        name = f"{key[0]} (pbo={'yes' if key[1] else 'no'})"
        for field in ("base_misses", "opt_misses"):
            drift = rel_drift(base[field], cur[field])
            if drift > miss_tol:
                failures.append(
                    f"{name}: {field} drifted {drift:.1%} "
                    f"({base[field]} -> {cur[field]}, tolerance {miss_tol:.1%})"
                )
        perf_delta = abs(cur["perf_percent"] - base["perf_percent"])
        if perf_delta > perf_tol:
            failures.append(
                f"{name}: perf_percent moved {perf_delta:.2f}pp "
                f"({base['perf_percent']:.2f} -> {cur['perf_percent']:.2f}, "
                f"tolerance {perf_tol:.2f}pp)"
            )
    return failures


def load_quality(path):
    """Loads a BENCH_profile_quality.json artifact: (default_period, rows)
    with rows keyed by (benchmark, period)."""
    doc = load_json(path, "profile-quality artifact")
    if not isinstance(doc, dict) or doc.get("bench") != "profile_quality" \
            or "rows" not in doc:
        raise SystemExit(f"{path}: not a BENCH_profile_quality.json artifact")
    default_period = doc.get("default_period")
    if not isinstance(default_period, int):
        raise SystemExit(f"{path}: missing integer default_period")
    rows = {}
    for row in doc["rows"]:
        require_keys(
            row,
            ("benchmark", "period", "advice_stable", "partition_stable",
             "tau", "opt_misses"),
            path,
            "profile-quality",
        )
        key = (row["benchmark"], int(row["period"]))
        if key in rows:
            raise SystemExit(f"{path}: duplicate row for {key}")
        rows[key] = row
    return default_period, rows


def check_quality_stability(default_period, rows):
    """The advice-stability invariant on one artifact: at the default
    sampling period, every workload plans the same transform set from
    sampled data as from exact data."""
    failures = []
    checked = 0
    for (bench, period), row in sorted(rows.items()):
        if period != default_period:
            continue
        checked += 1
        if not row["advice_stable"]:
            failures.append(
                f"{bench}: advice UNSTABLE at default period {default_period} "
                "(sampled profile plans a different transform set than exact)"
            )
    if checked == 0:
        failures.append(f"no rows at default period {default_period}")
    return failures


def compare_quality(base, current, miss_tol, tau_tol):
    """Drift of a profile-quality sweep against its baseline. Stability
    flags are exact (the sweep is seeded and fully simulated); tau and
    opt_misses get tolerances."""
    base_period, base_rows = base
    cur_period, cur_rows = current
    failures = []
    if base_period != cur_period:
        failures.append(
            f"default_period changed {base_period} -> {cur_period} "
            "(regenerate the baseline if intentional)"
        )
    for key in base_rows:
        if key not in cur_rows:
            failures.append(f"{key[0]} (period={key[1]}): row missing from current run")
    for key in cur_rows:
        if key not in base_rows:
            failures.append(
                f"{key[0]} (period={key[1]}): new row not in baseline "
                "(regenerate bench/baselines/BENCH_profile_quality.json)"
            )
    for key, b in sorted(base_rows.items()):
        c = cur_rows.get(key)
        if c is None:
            continue
        name = f"{key[0]} (period={key[1]})"
        for flag in ("advice_stable", "partition_stable"):
            if bool(b[flag]) != bool(c[flag]):
                failures.append(
                    f"{name}: {flag} changed {b[flag]} -> {c[flag]}"
                )
        tau_delta = abs(c["tau"] - b["tau"])
        if tau_delta > tau_tol:
            failures.append(
                f"{name}: tau moved {tau_delta:.3f} "
                f"({b['tau']:.3f} -> {c['tau']:.3f}, tolerance {tau_tol:.3f})"
            )
        drift = rel_drift(b["opt_misses"], c["opt_misses"])
        if drift > miss_tol:
            failures.append(
                f"{name}: opt_misses drifted {drift:.1%} "
                f"({b['opt_misses']} -> {c['opt_misses']}, tolerance {miss_tol:.1%})"
            )
    return failures


def load_engine_doc(path):
    """Loads a table3 artifact for the engine leg, keeping the top-level
    engine and sim_wall_ms fields the row-drift leg ignores."""
    doc = load_json(path, "table3 artifact")
    if not isinstance(doc, dict) or doc.get("table") != "table3" \
            or "rows" not in doc:
        raise SystemExit(f"{path}: not a BENCH_table3.json artifact")
    require_keys(doc, ("engine", "sim_wall_ms"), path, "table3 engine")
    return doc


def engine_compare(walker, vm, min_speedup):
    """The walker-vs-VM gate: identical simulation rows, bounded wall
    time. Returns a list of human-readable failure strings."""
    failures = []
    # Engine fields are literal: a binary that silently fell back to the
    # walker must not pass by comparing the walker against itself.
    if walker["engine"] != "walker":
        failures.append(
            f"walker artifact ran engine '{walker['engine']}', expected 'walker'"
        )
    if vm["engine"] != "vm":
        failures.append(
            f"vm artifact ran engine '{vm['engine']}', expected 'vm'"
        )

    # Simulation rows must be bit-identical, every field: the VM is an
    # optimization of the simulator's hot loop, never of its results.
    wrows = {(r.get("benchmark"), bool(r.get("pbo"))): r for r in walker["rows"]}
    vrows = {(r.get("benchmark"), bool(r.get("pbo"))): r for r in vm["rows"]}
    for key in sorted(set(wrows) | set(vrows)):
        name = f"{key[0]} (pbo={'yes' if key[1] else 'no'})"
        w, v = wrows.get(key), vrows.get(key)
        if w is None or v is None:
            failures.append(
                f"{name}: row present only in the "
                f"{'walker' if v is None else 'vm'} artifact"
            )
            continue
        for field in sorted(set(w) | set(v)):
            if w.get(field) != v.get(field):
                failures.append(
                    f"{name}: {field} diverges between engines "
                    f"(walker {w.get(field)!r}, vm {v.get(field)!r})"
                )

    if vm["sim_wall_ms"] <= 0:
        failures.append(f"vm artifact has non-positive sim_wall_ms")
    else:
        speedup = walker["sim_wall_ms"] / vm["sim_wall_ms"]
        if speedup < min_speedup:
            failures.append(
                f"vm engine speedup {speedup:.2f}x below the {min_speedup:.2f}x "
                f"floor (walker {walker['sim_wall_ms']:.1f} ms, "
                f"vm {vm['sim_wall_ms']:.1f} ms)"
            )
    return failures


def engine_self_test(min_speedup):
    """Engine-leg self-test on synthesized artifacts (the leg compares
    two fresh runs, not a baseline, so there is nothing on disk to
    perturb): a clean pair passes; a wrong engine field, one diverging
    row, and an insufficient speedup are each rejected."""
    rows = [
        {"benchmark": "181.mcf", "pbo": False, "types": 4, "transformed": 2,
         "split_dead": 1, "base_cycles": 1000, "opt_cycles": 900,
         "base_misses": 50, "opt_misses": 40, "perf_percent": 10.0},
        {"benchmark": "moldyn", "pbo": True, "types": 3, "transformed": 1,
         "split_dead": 0, "base_cycles": 2000, "opt_cycles": 1600,
         "base_misses": 80, "opt_misses": 60, "perf_percent": 20.0},
    ]
    walker = {"table": "table3", "engine": "walker", "sim_wall_ms": 1000.0,
              "rows": copy.deepcopy(rows)}
    vm = {"table": "table3", "engine": "vm", "sim_wall_ms": 250.0,
          "rows": copy.deepcopy(rows)}

    if engine_compare(walker, vm, min_speedup):
        print("self-test FAILED: clean engine pair does not pass")
        return 1

    rejected = []
    fallback = copy.deepcopy(vm)
    fallback["engine"] = "walker"  # Silent fall-back to the walker.
    rejected += engine_compare(walker, fallback, min_speedup) or [None]

    diverged = copy.deepcopy(vm)
    diverged["rows"][0]["opt_cycles"] += 1
    drift = engine_compare(walker, diverged, min_speedup)

    slow = copy.deepcopy(vm)
    slow["sim_wall_ms"] = walker["sim_wall_ms"] / (min_speedup * 0.5)
    lag = engine_compare(walker, slow, min_speedup)

    if rejected == [None] or not drift or not lag:
        print(
            "self-test FAILED: engine gate accepted a wrong engine field, "
            "a diverging row, or an insufficient speedup"
        )
        return 1
    print("self-test ok: engine pair passes, injected engine failures fail:")
    for f in [r for r in rejected if r] + drift + lag:
        print(f"  {f}")
    return 0


def load_service(path):
    """Loads a BENCH_service.json artifact (see bench_service.cpp)."""
    doc = load_json(path, "service artifact")
    if not isinstance(doc, dict) or doc.get("bench") != "service":
        raise SystemExit(f"{path}: not a BENCH_service.json artifact")
    # The paired-ratio fields stay optional here: the gate itself names
    # their absence.
    require_keys(doc, ("advice_requests", "advice_identical"), path, "service")
    return doc


def service_overhead_gate(art, max_overhead):
    """The telemetry-overhead gate, fed by one `bench_service` artifact.
    The bench runs a telemetry-on and a telemetry-free daemon in the same
    process and alternates single requests between the two, so each
    round's on/off QPS ratio is paired against identical machine load —
    comparing two separate bench invocations instead confounds the tax
    with drift between them. The gate requires the paired-ratio fields,
    serve-equals-oneshot on BOTH daemons, self-consistent daemon-side
    counts, and a median on/off QPS ratio of at least 1 - max_overhead.
    Returns human-readable failure strings."""
    failures = []
    ratio = art.get("overhead_qps_ratio")
    if ratio is None or art.get("advice_qps_on") is None or \
            art.get("advice_qps_off") is None:
        failures.append(
            "artifact has no paired on/off measurement -- produce it "
            "with bench_service"
        )
        return failures
    if not art["advice_identical"]:
        failures.append(
            "telemetry-on daemon broke serve-equals-oneshot "
            "(telemetry must never change advice bytes)"
        )
    if not art.get("advice_identical_off", False):
        failures.append(
            "telemetry-off daemon broke serve-equals-oneshot"
        )
    if art["advice_requests"] <= 0:
        failures.append("bench answered zero advice requests")
    if not art.get("telemetry_consistent", True):
        failures.append(
            "daemon-side telemetry is inconsistent "
            "(PutSource histogram count != TUs fed + retries, or GetMetrics "
            "disagrees with the in-process registry)"
        )
    if ratio < 1.0 - max_overhead:
        failures.append(
            f"telemetry costs {1.0 - ratio:.1%} of advice QPS "
            f"(median paired on/off ratio {ratio:.3f}, "
            f"budget {max_overhead:.1%})"
        )
    return failures


def service_overhead_self_test(max_overhead):
    """Overhead-leg self-test on synthesized artifacts (the leg gates a
    fresh run, nothing on disk to perturb): a clean artifact passes; an
    artifact without the paired measurement, a ratio past the
    budget, an inconsistent daemon count, and a diverged off-daemon are
    each rejected."""
    art = {
        "bench": "service", "tus": 25, "seed": 42, "advice_requests": 4000,
        "advice_qps_on": 2560.0, "advice_qps_off": 2600.0,
        "overhead_qps_ratio": 1.0 - max_overhead * 0.5,
        "advice_identical_off": True,
        "telemetry_consistent": True, "advice_identical": True,
    }
    if service_overhead_gate(art, max_overhead):
        print("self-test FAILED: clean overhead artifact does not pass")
        return 1

    unpaired = copy.deepcopy(art)  # No paired on/off rounds.
    for key in ("overhead_qps_ratio", "advice_qps_on", "advice_qps_off"):
        del unpaired[key]
    missing = service_overhead_gate(unpaired, max_overhead)

    costly = copy.deepcopy(art)
    costly["overhead_qps_ratio"] = 1.0 - max_overhead * 3.0
    slow = service_overhead_gate(costly, max_overhead)

    miscounted = copy.deepcopy(art)
    miscounted["telemetry_consistent"] = False
    skew = service_overhead_gate(miscounted, max_overhead)

    diverged = copy.deepcopy(art)
    diverged["advice_identical_off"] = False
    broken = service_overhead_gate(diverged, max_overhead)

    if not missing or not slow or not skew or not broken:
        print(
            "self-test FAILED: overhead gate accepted an artifact without the "
            "paired measurement, an over-budget QPS cost, an inconsistent "
            "daemon count, or a diverged off-daemon"
        )
        return 1
    print(
        "self-test ok: overhead artifact passes, injected overhead "
        "failures fail:"
    )
    for f in missing + slow + skew + broken:
        print(f"  {f}")
    return 0


def check_compile_time(path):
    """Presence/schema check only: google-benchmark JSON with benchmarks."""
    doc = load_json(path, "compile-time artifact")
    benches = doc.get("benchmarks") if isinstance(doc, dict) else None
    if not isinstance(benches, list) or not benches:
        raise SystemExit(f"{path}: no benchmarks in artifact")
    for b in benches:
        if "name" not in b or "real_time" not in b:
            raise SystemExit(f"{path}: malformed benchmark entry: {b}")
    print(f"ok: {path} contains {len(benches)} compile-time measurements")


def self_test(baseline_rows, quality, miss_tol, perf_tol, tau_tol):
    clean = compare(baseline_rows, baseline_rows, miss_tol, perf_tol)
    if clean:
        print("self-test FAILED: baseline does not pass against itself:")
        for f in clean:
            print(f"  {f}")
        return 1

    regressed = copy.deepcopy(baseline_rows)
    victim = sorted(regressed)[0]
    regressed[victim]["opt_misses"] = int(
        regressed[victim]["opt_misses"] * 1.10
    )
    failures = compare(baseline_rows, regressed, miss_tol, perf_tol)
    if not failures:
        print(
            "self-test FAILED: a 10% opt_misses regression on "
            f"{victim} was not rejected"
        )
        return 1
    print("self-test ok: baseline passes, injected 10% miss regression fails:")
    for f in failures:
        print(f"  {f}")

    # Profile-quality leg: the baseline must satisfy the stability
    # invariant and pass against itself, and flipping one advice_stable
    # flag at the default period — exactly what collecting with a
    # too-coarse sampling period produces — must be rejected.
    default_period, qrows = quality
    broken = check_quality_stability(default_period, qrows)
    if broken:
        print("self-test FAILED: quality baseline violates stability invariant:")
        for f in broken:
            print(f"  {f}")
        return 1
    if compare_quality(quality, quality, miss_tol, tau_tol):
        print("self-test FAILED: quality baseline does not pass against itself")
        return 1

    coarse = copy.deepcopy(qrows)
    qvictim = sorted(k for k in coarse if k[1] == default_period)[0]
    coarse[qvictim]["advice_stable"] = False
    stab = check_quality_stability(default_period, coarse)
    drift = compare_quality(quality, (default_period, coarse), miss_tol, tau_tol)
    if not stab or not drift:
        print(
            "self-test FAILED: an advice-stability flip on "
            f"{qvictim} was not rejected"
        )
        return 1
    print("self-test ok: quality baseline passes, injected advice flip fails:")
    for f in stab + drift:
        print(f"  {f}")
    if engine_self_test(min_speedup=2.5):
        return 1
    return service_overhead_self_test(max_overhead=0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="bench/baselines/BENCH_table3.json")
    ap.add_argument("--current", help="freshly produced BENCH_table3.json")
    ap.add_argument(
        "--compile-time",
        help="BENCH_compile_time.json to presence/schema-check (not gated)",
    )
    ap.add_argument(
        "--miss-tolerance",
        type=float,
        default=0.05,
        help="max relative drift in base/opt miss counts (default 5%%)",
    )
    ap.add_argument(
        "--perf-tolerance",
        type=float,
        default=2.0,
        help="max absolute drift in perf_percent, in points (default 2.0)",
    )
    ap.add_argument(
        "--profile-quality",
        help="freshly produced BENCH_profile_quality.json to gate",
    )
    ap.add_argument(
        "--profile-quality-baseline",
        default="bench/baselines/BENCH_profile_quality.json",
    )
    ap.add_argument(
        "--tau-tolerance",
        type=float,
        default=0.05,
        help="max absolute drift in Kendall tau per row (default 0.05)",
    )
    ap.add_argument(
        "--engine-compare",
        nargs=2,
        metavar=("WALKER_JSON", "VM_JSON"),
        help="gate a walker-engine table3 artifact against a vm-engine "
        "one: rows must be bit-identical and the vm at least "
        "--min-speedup times faster in simulator wall time",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=2.5,
        help="minimum walker/vm simulator wall-time ratio for "
        "--engine-compare (default 2.5; deliberately below the 3.6-3.9x "
        "an idle box measures, so a loaded CI box does not flake)",
    )
    ap.add_argument(
        "--service-overhead",
        metavar="SERVICE_JSON",
        help="gate a bench_service artifact: the bench pairs a "
        "telemetry-free daemon against a telemetry-on one in the "
        "same process (alternating single requests, so drift cancels); "
        "requires serve-equals-oneshot on both daemons, self-consistent "
        "daemon counts, and a median on/off QPS ratio of at least "
        "1 - --max-overhead",
    )
    ap.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="maximum fraction of advice QPS always-on telemetry may "
        "cost for --service-overhead (default 5%%)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate rejects an injected 10%% miss regression, "
        "an injected advice-stability flip, an injected engine "
        "divergence, and an injected telemetry-overhead failure",
    )
    args = ap.parse_args()

    # The engine leg compares two fresh artifacts against each other and
    # needs no baseline on disk.
    if args.engine_compare and not args.self_test:
        walker = load_engine_doc(args.engine_compare[0])
        vm = load_engine_doc(args.engine_compare[1])
        failures = engine_compare(walker, vm, args.min_speedup)
        if failures:
            print(f"engine gate FAILED ({len(failures)} finding(s)):")
            for f in failures:
                print(f"  {f}")
            return 1
        print(
            f"engine gate ok: {len(vm['rows'])} rows bit-identical, vm "
            f"{walker['sim_wall_ms'] / vm['sim_wall_ms']:.2f}x faster "
            f"({walker['sim_wall_ms']:.1f} ms -> {vm['sim_wall_ms']:.1f} ms, "
            f"floor {args.min_speedup:.2f}x)"
        )
        return 0

    # The overhead leg gates one fresh artifact (the on/off
    # pairing happened inside the bench) and needs no baseline on disk.
    if args.service_overhead and not args.self_test:
        art = load_service(args.service_overhead)
        failures = service_overhead_gate(art, args.max_overhead)
        if failures:
            print(f"service overhead gate FAILED ({len(failures)} finding(s)):")
            for f in failures:
                print(f"  {f}")
            return 1
        ratio = art["overhead_qps_ratio"]
        print(
            f"service overhead gate ok: telemetry costs "
            f"{max(1.0 - ratio, 0.0):.1%} of advice QPS (median paired "
            f"on/off ratio {ratio:.3f}, {art['advice_qps_off']:.1f} off vs "
            f"{art['advice_qps_on']:.1f} on, budget {args.max_overhead:.1%})"
        )
        return 0

    baseline = load_rows(args.baseline)

    if args.self_test:
        quality = load_quality(args.profile_quality_baseline)
        return self_test(
            baseline,
            quality,
            args.miss_tolerance,
            args.perf_tolerance,
            args.tau_tolerance,
        )

    if not args.current and not args.profile_quality:
        ap.error("--current or --profile-quality is required unless --self-test")

    if args.compile_time:
        check_compile_time(args.compile_time)

    failures = []
    gated = []
    if args.current:
        current = load_rows(args.current)
        failures += compare(
            baseline, current, args.miss_tolerance, args.perf_tolerance
        )
        gated.append(f"{len(current)} table3 rows")
    if args.profile_quality:
        qcurrent = load_quality(args.profile_quality)
        failures += check_quality_stability(*qcurrent)
        failures += compare_quality(
            load_quality(args.profile_quality_baseline),
            qcurrent,
            args.miss_tolerance,
            args.tau_tolerance,
        )
        gated.append(f"{len(qcurrent[1])} profile-quality rows")
    if failures:
        print(f"bench gate FAILED ({len(failures)} drift(s)):")
        for f in failures:
            print(f"  {f}")
        print(
            "if this change is intentional, regenerate the baseline(s):\n"
            "  ./build/bench/bench_table3_performance && "
            "cp BENCH_table3.json bench/baselines/\n"
            "  ./build/bench/bench_profile_quality && "
            "cp BENCH_profile_quality.json bench/baselines/"
        )
        return 1
    print(
        f"bench gate ok: {', '.join(gated)} within tolerance "
        f"(miss {args.miss_tolerance:.1%}, perf {args.perf_tolerance}pp, "
        f"tau {args.tau_tolerance})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
