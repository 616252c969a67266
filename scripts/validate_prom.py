#!/usr/bin/env python3
"""Prometheus text-format validator for the DDC metrics exporter.

Checks that a scrape (``MetricsRequest`` with the ``prometheus``
format, or the file ``loadgen --metrics-out`` writes) is well-formed:

* every sample line parses as ``name{labels} value`` with a legal
  metric name, legal label syntax, and a numeric value;
* every sample belongs to a family announced by a ``# TYPE`` line of a
  known type (``counter``, ``gauge`` or ``histogram``), announced once;
* histogram series are internally consistent: cumulative buckets are
  non-decreasing, a ``+Inf`` bucket exists, and ``_count`` equals it,
  with ``_sum`` present.

``--require-nonzero PREFIX`` (repeatable) additionally demands at least
one sample whose name starts with ``PREFIX`` and whose value is > 0 —
CI uses this to prove the scrape saw real traffic, not a zeroed page.

Usage:
    python3 scripts/validate_prom.py METRICS.prom \
        [--require-nonzero ddc_stage_blocks_total] ...
    python3 scripts/validate_prom.py --self-test
"""

import argparse
import io
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')
KNOWN_TYPES = {"counter", "gauge", "histogram"}
HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def family_of(name, types):
    """Maps a sample name to its announced family, honouring the
    histogram suffixes (``x_bucket`` belongs to histogram family ``x``,
    but only when ``x`` was announced as one)."""
    if name in types:
        return name
    for suffix in HIST_SUFFIXES:
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def parse_labels(raw):
    """Splits a label body into a dict; returns None on bad syntax."""
    if raw is None or raw == "":
        return {}
    labels = {}
    for part in raw.split(","):
        if not LABEL_RE.match(part):
            return None
        key, value = part.split("=", 1)
        labels[key] = value.strip('"')
    return labels


def validate(text, require_nonzero=(), out=sys.stdout, err=sys.stderr):
    """Validates one exposition; returns the exit code."""
    errors = []
    types = {}  # family -> type
    samples = []  # (name, labels-dict, value)

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split()
            if len(fields) >= 2 and fields[1] == "TYPE":
                if len(fields) != 4 or not NAME_RE.fullmatch(fields[2]):
                    errors.append(f"line {lineno}: malformed TYPE line: {line!r}")
                    continue
                fam, kind = fields[2], fields[3]
                if kind not in KNOWN_TYPES:
                    errors.append(f"line {lineno}: unknown type {kind!r} for {fam}")
                elif fam in types:
                    errors.append(f"line {lineno}: duplicate TYPE for {fam}")
                else:
                    types[fam] = kind
            # HELP and other comments pass through unchecked.
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        labels = parse_labels(m.group("labels"))
        if labels is None:
            errors.append(f"line {lineno}: bad label syntax: {line!r}")
            continue
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value: {line!r}")
            continue
        name = m.group("name")
        if family_of(name, types) is None:
            errors.append(f"line {lineno}: sample {name} has no preceding TYPE")
            continue
        samples.append((name, labels, value))

    # Histogram consistency, keyed on (family, labels-without-le).
    hists = {}
    for name, labels, value in samples:
        for suffix in HIST_SUFFIXES:
            if name.endswith(suffix) and types.get(name[: -len(suffix)]) == "histogram":
                base = name[: -len(suffix)]
                key = (base, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
                h = hists.setdefault(key, {"buckets": [], "sum": None, "count": None})
                if suffix == "_bucket":
                    h["buckets"].append((labels.get("le"), value))
                elif suffix == "_sum":
                    h["sum"] = value
                else:
                    h["count"] = value
    for (base, labelkey), h in sorted(hists.items()):
        where = f"{base}{{{', '.join(f'{k}={v}' for k, v in labelkey)}}}"
        les = [le for le, _ in h["buckets"]]
        counts = [v for _, v in h["buckets"]]
        if "+Inf" not in les:
            errors.append(f"{where}: histogram has no +Inf bucket")
        if any(b > a for b, a in zip(counts, counts[1:])):
            errors.append(f"{where}: bucket counts are not cumulative: {counts}")
        if h["sum"] is None:
            errors.append(f"{where}: histogram has no _sum sample")
        if h["count"] is None:
            errors.append(f"{where}: histogram has no _count sample")
        elif "+Inf" in les and h["count"] != counts[les.index("+Inf")]:
            errors.append(
                f"{where}: _count {h['count']} != +Inf bucket "
                f"{counts[les.index('+Inf')]}"
            )

    for prefix in require_nonzero:
        hit = any(
            name.startswith(prefix) and value > 0 for name, _, value in samples
        )
        if not hit:
            errors.append(
                f"required non-zero sample missing: no {prefix}* sample > 0"
            )

    if errors:
        for e in errors:
            print(f"FAIL  {e}", file=err)
        print(
            f"\nvalidate_prom: {len(errors)} error(s) in {len(samples)} "
            f"sample(s) across {len(types)} familie(s)",
            file=err,
        )
        return 1
    print(
        f"validate_prom: ok ({len(samples)} samples, {len(types)} families, "
        f"{len(hists)} histogram series)",
        file=out,
    )
    return 0


def self_test():
    """Exercises the validator's decision table on synthetic pages."""

    def run(text, **kw):
        out, errstream = io.StringIO(), io.StringIO()
        code = validate(text, out=out, err=errstream, **kw)
        return code, out.getvalue(), errstream.getvalue()

    good = (
        "# TYPE ddc_chain_slices_total counter\n"
        'ddc_chain_slices_total 12\n'
        "# TYPE ddc_stage_latency_ns histogram\n"
        'ddc_stage_latency_ns_bucket{stage="cic2r16",le="1024"} 3\n'
        'ddc_stage_latency_ns_bucket{stage="cic2r16",le="+Inf"} 5\n'
        'ddc_stage_latency_ns_sum{stage="cic2r16"} 4100\n'
        'ddc_stage_latency_ns_count{stage="cic2r16"} 5\n'
    )

    checks = []

    def check(label, cond):
        checks.append((label, cond))
        print(f"{'ok' if cond else 'FAIL':<5} self-test: {label}")

    code, out, err = run(good)
    check("well-formed page passes", code == 0 and "ok" in out)

    code, out, err = run(good, require_nonzero=["ddc_chain_slices"])
    check("require-nonzero satisfied passes", code == 0)

    # The channelizer families as the server exports them: every series
    # carries a bank="..." label (and stage="..." on the histograms) so
    # concurrently live banks never collide in one scrape.
    chan = (
        "# TYPE ddc_channelizer_channels_active counter\n"
        'ddc_channelizer_channels_active{bank="pfb8"} 8\n'
        "# TYPE ddc_channelizer_blocks_total counter\n"
        'ddc_channelizer_blocks_total{bank="pfb8"} 12\n'
        "# TYPE ddc_channelizer_stage_ns histogram\n"
        'ddc_channelizer_stage_ns_bucket{bank="pfb8",stage="fft",le="2048"} 2\n'
        'ddc_channelizer_stage_ns_bucket{bank="pfb8",stage="fft",le="+Inf"} 12\n'
        'ddc_channelizer_stage_ns_sum{bank="pfb8",stage="fft"} 31000\n'
        'ddc_channelizer_stage_ns_count{bank="pfb8",stage="fft"} 12\n'
    )
    code, out, err = run(
        chan,
        require_nonzero=["ddc_channelizer_blocks_total", "ddc_channelizer_stage_ns_count"],
    )
    check("bank-labelled channelizer families pass", code == 0)

    code, out, err = run(good, require_nonzero=["ddc_worker_jobs"])
    check(
        "require-nonzero unmet fails",
        code == 1 and "ddc_worker_jobs" in err,
    )

    code, out, err = run(good.replace(" 12\n", " 0\n"), require_nonzero=["ddc_chain_slices"])
    check("require-nonzero rejects all-zero samples", code == 1)

    code, out, err = run("ddc_orphan_total 3\n")
    check("sample without TYPE fails", code == 1 and "no preceding TYPE" in err)

    code, out, err = run("# TYPE x widget\nx 1\n")
    check("unknown type fails", code == 1 and "unknown type" in err)

    code, out, err = run(good + "# TYPE ddc_chain_slices_total counter\n")
    check("duplicate TYPE fails", code == 1 and "duplicate" in err)

    code, out, err = run("# TYPE x counter\nx notanumber\n")
    check("non-numeric value fails", code == 1 and "non-numeric" in err)

    code, out, err = run('# TYPE x counter\nx{bad-label="1"} 2\n')
    check("bad label syntax fails", code == 1)

    noinf = (
        "# TYPE h histogram\n"
        'h_bucket{le="8"} 1\n'
        "h_sum 4\n"
        "h_count 1\n"
    )
    code, out, err = run(noinf)
    check("histogram without +Inf fails", code == 1 and "+Inf" in err)

    noncum = good.replace('le="1024"} 3', 'le="1024"} 9')
    code, out, err = run(noncum)
    check("non-cumulative buckets fail", code == 1 and "cumulative" in err)

    miscount = good.replace("_count{stage=\"cic2r16\"} 5", "_count{stage=\"cic2r16\"} 7")
    code, out, err = run(miscount)
    check("_count != +Inf fails", code == 1 and "_count" in err)

    bad = [label for label, cond in checks if not cond]
    if bad:
        print(
            f"\nvalidate_prom self-test: {len(bad)} check(s) failed",
            file=sys.stderr,
        )
        return 1
    print(f"\nvalidate_prom self-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", help="exposition file to validate")
    ap.add_argument(
        "--require-nonzero",
        action="append",
        default=[],
        metavar="PREFIX",
        help="demand at least one sample with this name prefix and a "
        "value > 0 (repeatable)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the validator's own decision-table tests and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.file:
        ap.error("an exposition file is required unless --self-test")
    with open(args.file) as fh:
        text = fh.read()
    return validate(text, require_nonzero=args.require_nonzero)


if __name__ == "__main__":
    sys.exit(main())
