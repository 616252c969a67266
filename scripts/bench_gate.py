#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly generated ``BENCH_kernels.json`` against the
committed baseline and fails (exit 1) if any stage's per-sample or
block throughput dropped by more than the allowed fraction (default
25%).

Stage names key on the chain-spec registry (``chain_<spec name>``,
``cic<order>_r<decim>``, ...), so the stage set is expected to be
closed: a stage present only in the *baseline* is a hard failure by
default — it usually means a spec or stage was dropped or renamed
without regenerating the baseline.  Pass ``--allow-missing`` to
downgrade that to a warning (e.g. while bisecting across a rename).
A stage present only in the *fresh* run is a new stage with no
baseline — noted and skipped in either mode.

Absolute floors (``--min stage:metric=value``, repeatable) gate the
*fresh* run directly, with no baseline comparison: the FIR-kernel
shootout's acceptance numbers (e.g. ``fir_seq_125tap_r8:block_msps``)
are claims about absolute throughput, which a relative gate cannot
protect once a slow run is ever committed as the baseline.

Absolute ceilings (``--max stage:metric=value``, repeatable) are the
mirror image, for metrics where *smaller* is better: latency
quantiles (``chain_drm_latency:latency_p99_us``) must stay under the
declared QoS budget outright, and a relative gate would let them
creep if a slow run were ever committed.

Usage:
    python3 scripts/bench_gate.py BASELINE.json FRESH.json [--max-drop 0.25]
    python3 scripts/bench_gate.py BASE.json FRESH.json --min fir_seq_125tap_r8:block_msps=213
    python3 scripts/bench_gate.py BASE.json FRESH.json --max chain_drm_latency:latency_p99_us=2000
    python3 scripts/bench_gate.py --self-test
"""

import argparse
import io
import json
import re
import sys


def load_stages(path):
    with open(path) as fh:
        doc = json.load(fh)
    return stages_of(doc)


def stages_of(doc):
    stages = {}
    for entry in doc.get("stages", []):
        stages[entry["stage"]] = entry
    return stages


def parse_bound(spec):
    """Parses one ``stage:metric=value`` bound into a tuple (shared by
    ``--min`` floors and ``--max`` ceilings)."""
    try:
        target, value = spec.rsplit("=", 1)
        stage, metric = target.split(":", 1)
        return stage, metric, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected stage:metric=value, got {spec!r}"
        )


# Backwards-compatible alias (the floor parser predates the ceilings).
parse_min = parse_bound


def run_gate(
    base,
    fresh,
    max_drop,
    allow_missing=False,
    max_telemetry_overhead=None,
    mins=(),
    maxes=(),
    out=sys.stdout,
    err=sys.stderr,
):
    """Gates `fresh` stage dict against `base`; returns the exit code."""
    failures = []
    missing = []
    for name, b in sorted(base.items()):
        f = fresh.get(name)
        if f is None:
            verdict = "skipped" if allow_missing else "FAIL"
            print(
                f"WARN  {name}: present in baseline but absent from fresh "
                f"run ({verdict})",
                file=err,
            )
            missing.append(name)
            continue
        for metric in ("per_sample_msps", "block_msps"):
            if metric not in b or metric not in f:
                continue
            was, now = b[metric], f[metric]
            if was <= 0:
                continue
            drop = (was - now) / was
            status = "FAIL" if drop > max_drop else "ok"
            print(
                f"{status:<5} {name}.{metric}: {was:.2f} -> {now:.2f} Ms/s "
                f"({-drop:+.1%})",
                file=out,
            )
            if drop > max_drop:
                failures.append((name, metric, was, now))

    for name in sorted(set(fresh) - set(base)):
        print(f"NOTE  {name}: new stage, no baseline (skipped)", file=out)

    # The telemetry-overhead ratio is an absolute bound on the *fresh*
    # run, not a baseline comparison: instrumentation must stay cheap
    # no matter what the committed baseline recorded.
    overhead_bad = False
    if max_telemetry_overhead is not None:
        entry = fresh.get("telemetry_overhead")
        if entry is None or "overhead_frac" not in entry:
            print(
                "FAIL  telemetry_overhead.overhead_frac: absent from fresh "
                "run (expected the bench to emit it)",
                file=err,
            )
            overhead_bad = True
        else:
            frac = entry["overhead_frac"]
            status = "FAIL" if frac > max_telemetry_overhead else "ok"
            print(
                f"{status:<5} telemetry_overhead.overhead_frac: {frac:.2%} "
                f"(limit {max_telemetry_overhead:.1%})",
                file=out,
            )
            overhead_bad = frac > max_telemetry_overhead

    # Channelizer amortisation curve: whenever the fresh run carries
    # two or more channelizer_n<N> stages, the amortised per-channel
    # cost must fall as the bank widens — the polyphase front end's
    # whole argument is that one shared filter + FFT beats N
    # independent chains, and that advantage must grow with N.
    curve_bad = False
    curve = sorted(
        (int(m.group(1)), entry["per_channel_cost_ns"])
        for name, entry in fresh.items()
        if (m := re.fullmatch(r"channelizer_n(\d+)", name))
        and "per_channel_cost_ns" in entry
    )
    for (n_lo, cost_lo), (n_hi, cost_hi) in zip(curve, curve[1:]):
        status = "FAIL" if cost_hi >= cost_lo else "ok"
        print(
            f"{status:<5} channelizer amortisation: n{n_lo} "
            f"{cost_lo:.2f} -> n{n_hi} {cost_hi:.2f} ns/channel-sample",
            file=out,
        )
        if cost_hi >= cost_lo:
            curve_bad = True

    # Absolute floors on the fresh run: the shootout's acceptance
    # numbers must hold outright, independent of what the committed
    # baseline happens to record.
    floor_bad = False
    for stage, metric, floor in mins:
        entry = fresh.get(stage)
        value = None if entry is None else entry.get(metric)
        if value is None:
            print(
                f"FAIL  {stage}.{metric}: absent from fresh run "
                f"(floor {floor:.2f} requested)",
                file=err,
            )
            floor_bad = True
            continue
        status = "FAIL" if value < floor else "ok"
        print(
            f"{status:<5} {stage}.{metric}: {value:.2f} "
            f"(floor {floor:.2f})",
            file=out,
        )
        if value < floor:
            floor_bad = True

    # Absolute ceilings on the fresh run: the latency-QoS stage's
    # quantiles are claims about bounded delay — they must hold
    # outright, for the same reason the floors do.
    ceiling_bad = False
    for stage, metric, ceiling in maxes:
        entry = fresh.get(stage)
        value = None if entry is None else entry.get(metric)
        if value is None:
            print(
                f"FAIL  {stage}.{metric}: absent from fresh run "
                f"(ceiling {ceiling:.2f} requested)",
                file=err,
            )
            ceiling_bad = True
            continue
        status = "FAIL" if value > ceiling else "ok"
        print(
            f"{status:<5} {stage}.{metric}: {value:.2f} "
            f"(ceiling {ceiling:.2f})",
            file=out,
        )
        if value > ceiling:
            ceiling_bad = True

    if missing and not allow_missing:
        print(
            f"\nbench gate: {len(missing)} baseline stage(s) missing from "
            f"the fresh run: {', '.join(missing)} "
            f"(regenerate the baseline, or pass --allow-missing)",
            file=err,
        )
        return 1
    if failures:
        print(
            f"\nbench gate: {len(failures)} metric(s) regressed more than "
            f"{max_drop:.0%}",
            file=err,
        )
        return 1
    if overhead_bad:
        print(
            f"\nbench gate: telemetry overhead exceeds "
            f"{max_telemetry_overhead:.1%}",
            file=err,
        )
        return 1
    if curve_bad:
        print(
            "\nbench gate: channelizer per-channel cost does not fall "
            "as the bank widens",
            file=err,
        )
        return 1
    if floor_bad:
        print("\nbench gate: absolute floor(s) not met", file=err)
        return 1
    if ceiling_bad:
        print("\nbench gate: absolute ceiling(s) exceeded", file=err)
        return 1
    print("\nbench gate: ok", file=out)
    return 0


def self_test():
    """Exercises the gate's decision table on synthetic documents."""

    def gate(base, fresh, **kw):
        out, err = io.StringIO(), io.StringIO()
        code = run_gate(
            stages_of(base), stages_of(fresh), kw.pop("max_drop", 0.25),
            out=out, err=err, **kw
        )
        return code, out.getvalue(), err.getvalue()

    def doc(**stages):
        return {
            "stages": [
                {"stage": k, **v} for k, v in stages.items()
            ]
        }

    checks = []

    def check(label, cond):
        checks.append((label, cond))
        print(f"{'ok' if cond else 'FAIL':<5} self-test: {label}")

    # 1. identical runs pass
    base = doc(nco={"per_sample_msps": 100.0, "block_msps": 200.0})
    code, out, err = gate(base, base)
    check("identical runs pass", code == 0 and "ok" in out)

    # 2. a >25% drop fails
    slow = doc(nco={"per_sample_msps": 60.0, "block_msps": 200.0})
    code, out, err = gate(base, slow)
    check("26%+ drop fails", code == 1 and "FAIL" in out)

    # 3. a small drop passes
    ok = doc(nco={"per_sample_msps": 90.0, "block_msps": 190.0})
    code, out, err = gate(base, ok)
    check("10% drop passes", code == 0)

    # 4. baseline-only stage fails loudly by default
    fresh = doc()
    code, out, err = gate(base, fresh)
    check(
        "baseline-only stage fails by default",
        code == 1 and "missing" in err and "nco" in err,
    )

    # 5. ... unless --allow-missing downgrades it to a warning
    code, out, err = gate(base, fresh, allow_missing=True)
    check("--allow-missing downgrades to a warning", code == 0 and "WARN" in err)

    # 6. a fresh-only stage is noted and skipped (superset schema)
    fresh = doc(
        nco={"per_sample_msps": 100.0, "block_msps": 200.0},
        server_loopback={"block_msps": 5.0},
    )
    code, out, err = gate(base, fresh)
    check("new stage is skipped", code == 0 and "new stage" in out)

    # 7. a metric missing on either side is skipped, not crashed on
    base_partial = doc(server_loopback={"block_msps": 10.0})
    fresh_partial = doc(server_loopback={"block_msps": 9.5})
    code, out, err = gate(base_partial, fresh_partial)
    check("single-metric stages gate on what they have", code == 0)
    code, out, err = gate(base_partial, doc(server_loopback={"block_msps": 1.0}))
    check("single-metric stages still fail on regression", code == 1)

    # 8. telemetry overhead under the bound passes, over it fails,
    #    and an absent stage fails loudly when the bound is requested
    tele_base = doc(
        nco={"per_sample_msps": 100.0, "block_msps": 200.0},
        telemetry_overhead={"block_msps": 50.0, "overhead_frac": 0.004},
    )
    tele_ok = doc(
        nco={"per_sample_msps": 100.0, "block_msps": 200.0},
        telemetry_overhead={"block_msps": 50.0, "overhead_frac": 0.006},
    )
    code, out, err = gate(tele_base, tele_ok, max_telemetry_overhead=0.01)
    check("telemetry overhead under bound passes", code == 0 and "ok" in out)
    tele_slow = doc(
        nco={"per_sample_msps": 100.0, "block_msps": 200.0},
        telemetry_overhead={"block_msps": 50.0, "overhead_frac": 0.03},
    )
    code, out, err = gate(tele_base, tele_slow, max_telemetry_overhead=0.01)
    check(
        "telemetry overhead over bound fails",
        code == 1 and "overhead" in err,
    )
    code, out, err = gate(
        tele_base,
        doc(
            nco={"per_sample_msps": 100.0, "block_msps": 200.0},
            telemetry_overhead={"block_msps": 50.0, "overhead_frac": 0.03},
        ),
    )
    check("overhead ignored when no bound is requested", code == 0)
    no_tele = doc(nco={"per_sample_msps": 100.0, "block_msps": 200.0})
    code, out, err = gate(tele_base, no_tele, max_telemetry_overhead=0.01)
    check(
        "absent overhead stage fails when bound requested",
        code == 1 and "absent" in err,
    )

    # 9. absolute floors: met passes, unmet fails, absent stage fails,
    #    and the spec parser round-trips / rejects malformed specs
    fast = doc(fir_seq_125tap_r8={"per_sample_msps": 78.0, "block_msps": 274.0})
    code, out, err = gate(
        fast, fast, mins=[("fir_seq_125tap_r8", "block_msps", 213.0)]
    )
    check("met absolute floor passes", code == 0 and "floor 213.00" in out)
    code, out, err = gate(
        fast, fast, mins=[("fir_seq_125tap_r8", "block_msps", 300.0)]
    )
    check("unmet absolute floor fails", code == 1 and "floor(s) not met" in err)
    code, out, err = gate(
        fast, fast, mins=[("chain_drm", "block_msps", 320.0)]
    )
    check("floor on absent stage fails", code == 1 and "absent" in err)
    check(
        "floor spec parser round-trips",
        parse_min("chain_drm:block_msps=320") == ("chain_drm", "block_msps", 320.0),
    )
    try:
        parse_min("no-equals-sign")
        check("malformed floor spec rejected", False)
    except argparse.ArgumentTypeError:
        check("malformed floor spec rejected", True)

    # 9b. absolute ceilings: under passes, over fails, absent stage
    #     fails, and floors + ceilings compose in one invocation
    quick = doc(chain_drm_latency={"block_msps": 90.0, "latency_p99_us": 480.0})
    code, out, err = gate(
        quick, quick, maxes=[("chain_drm_latency", "latency_p99_us", 2000.0)]
    )
    check("met absolute ceiling passes", code == 0 and "ceiling 2000.00" in out)
    code, out, err = gate(
        quick, quick, maxes=[("chain_drm_latency", "latency_p99_us", 100.0)]
    )
    check(
        "exceeded absolute ceiling fails",
        code == 1 and "ceiling(s) exceeded" in err,
    )
    code, out, err = gate(
        quick, quick, maxes=[("server_loopback", "lat_p99_ns", 1e6)]
    )
    check("ceiling on absent stage fails", code == 1 and "absent" in err)
    code, out, err = gate(
        quick,
        quick,
        mins=[("chain_drm_latency", "block_msps", 50.0)],
        maxes=[("chain_drm_latency", "latency_p99_us", 2000.0)],
    )
    check("floors and ceilings compose", code == 0)

    # 10. channelizer amortisation: a falling per-channel cost passes,
    #     a flat or rising one fails, and a lone stage has no curve to
    #     check (sorting is numeric, so n64 orders after n8)
    falling = doc(
        channelizer_n8={"block_msps": 40.0, "per_channel_cost_ns": 3.1},
        channelizer_n64={"block_msps": 30.0, "per_channel_cost_ns": 0.5},
        channelizer_n256={"block_msps": 20.0, "per_channel_cost_ns": 0.2},
    )
    code, out, err = gate(falling, falling)
    check("falling channelizer curve passes", code == 0 and "amortisation" in out)
    rising = doc(
        channelizer_n8={"block_msps": 40.0, "per_channel_cost_ns": 3.1},
        channelizer_n64={"block_msps": 30.0, "per_channel_cost_ns": 0.5},
        channelizer_n256={"block_msps": 2.0, "per_channel_cost_ns": 2.0},
    )
    code, out, err = gate(falling, rising, max_drop=0.95)
    check(
        "rising channelizer curve fails",
        code == 1 and "does not fall" in err,
    )
    lone = doc(channelizer_n8={"block_msps": 40.0, "per_channel_cost_ns": 3.1})
    code, out, err = gate(lone, lone)
    check("lone channelizer stage has no curve to fail", code == 0)

    bad = [label for label, cond in checks if not cond]
    if bad:
        print(f"\nbench gate self-test: {len(bad)} check(s) failed", file=sys.stderr)
        return 1
    print(f"\nbench gate self-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument(
        "--max-drop",
        type=float,
        default=0.25,
        help="maximum allowed fractional throughput drop per metric",
    )
    ap.add_argument(
        "--allow-missing",
        action="store_true",
        help="warn (instead of fail) when a baseline stage is absent "
        "from the fresh run",
    )
    ap.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=None,
        help="fail when the fresh run's telemetry_overhead.overhead_frac "
        "exceeds this fraction (absolute bound, no baseline needed)",
    )
    ap.add_argument(
        "--min",
        dest="mins",
        action="append",
        type=parse_bound,
        default=[],
        metavar="STAGE:METRIC=VALUE",
        help="absolute floor on the fresh run (repeatable), e.g. "
        "fir_seq_125tap_r8:block_msps=213",
    )
    ap.add_argument(
        "--max",
        dest="maxes",
        action="append",
        type=parse_bound,
        default=[],
        metavar="STAGE:METRIC=VALUE",
        help="absolute ceiling on the fresh run (repeatable), e.g. "
        "chain_drm_latency:latency_p99_us=2000",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the gate's own decision-table tests and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.fresh:
        ap.error("baseline and fresh files are required unless --self-test")

    base = load_stages(args.baseline)
    fresh = load_stages(args.fresh)
    return run_gate(
        base,
        fresh,
        args.max_drop,
        allow_missing=args.allow_missing,
        max_telemetry_overhead=args.max_telemetry_overhead,
        mins=args.mins,
        maxes=args.maxes,
    )


if __name__ == "__main__":
    sys.exit(main())
