#!/usr/bin/env python3
"""Diff two alp-bench-v1 JSON reports and flag regressions.

Usage:
  bench_diff.py <baseline.json> <current.json>
      [--ratio-threshold=PCT]   compression metrics; default 5 (percent)
      [--speed-threshold=PCT|none]
                                speed metrics; default none (cycle counts
                                are machine-dependent, so CI leaves them
                                informational; set a percentage on pinned
                                hardware)
      [--latency-threshold=PCT|none]
                                serving latency metrics (p50/p99/p999);
                                default none
      [--markdown-out=PATH]     also write the markdown table to PATH
      [--all]                   list every joined metric, not just changes

Records are joined on (dataset, scheme, metric, threads). Each metric has a
direction: for bits_per_value and *cycles_per_value* lower is better; for
compression_ratio and *tuples_per_cycle* higher is better. Serving-tail
metrics (*latency*) are lower-better and gate through their own
--latency-threshold (default none: tail latencies are machine- and
load-dependent, so CI sets a deliberately generous percentage). A joined
pair whose worse-direction delta exceeds the metric class's threshold is a
regression; improvements and unknown metrics are reported but never fail.

Joined pairs whose records carry *different* `kernel_tier` tags (the decode
kernel the measurement rode on, see docs/BENCH_SCHEMA.md) are listed as
`tier-mismatch` and never gate: comparing a scalar-tier baseline against an
avx512 run measures the dispatcher, not a regression.

Output is a markdown table (stdout, and --markdown-out when given). Exit
status: 0 = no regressions, 1 = at least one regression, 2 = bad input.
Standard library only, so CI can run it on a bare runner.
"""

import json
import sys

# Metric direction registry. Compression ("ratio") metrics are
# deterministic for a given dataset + config, so they gate CI; speed
# metrics are cycle counts and only gate when a threshold is set.
LOWER_BETTER_RATIO = {"bits_per_value"}
HIGHER_BETTER_RATIO = {"compression_ratio"}


def metric_class(metric):
    """Returns (kind, lower_is_better) with kind in
    ratio|speed|latency|other."""
    if metric in LOWER_BETTER_RATIO:
        return "ratio", True
    if metric in HIGHER_BETTER_RATIO:
        return "ratio", False
    if "latency" in metric:
        return "latency", True
    if "cycles_per" in metric:
        return "speed", True
    if "tuples_per_cycle" in metric or "per_second" in metric:
        return "speed", False
    return "other", True


def load_records(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot parse {path}: {e}", file=sys.stderr)
        return None
    records = doc.get("records")
    if not isinstance(records, list):
        print(f"bench_diff: {path} has no records array", file=sys.stderr)
        return None
    out = {}
    for rec in records:
        if not isinstance(rec, dict):
            continue
        key = (
            rec.get("dataset"),
            rec.get("scheme"),
            rec.get("metric"),
            rec.get("threads"),
        )
        if None in key[:3] or not isinstance(rec.get("value"), (int, float)):
            continue
        out[key] = (float(rec["value"]), rec.get("kernel_tier"))
    if not out:
        print(f"bench_diff: {path} has no usable records", file=sys.stderr)
        return None
    return out


def parse_threshold(text, flag):
    if text == "none":
        return None
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if value < 0:
        print(f"bench_diff: bad {flag} value: {text!r}", file=sys.stderr)
        sys.exit(2)
    return value


def main(argv):
    paths = []
    ratio_threshold = 5.0
    speed_threshold = None
    latency_threshold = None
    markdown_out = None
    show_all = False
    for arg in argv[1:]:
        if arg.startswith("--ratio-threshold="):
            ratio_threshold = parse_threshold(
                arg.split("=", 1)[1], "--ratio-threshold")
        elif arg.startswith("--speed-threshold="):
            speed_threshold = parse_threshold(
                arg.split("=", 1)[1], "--speed-threshold")
        elif arg.startswith("--latency-threshold="):
            latency_threshold = parse_threshold(
                arg.split("=", 1)[1], "--latency-threshold")
        elif arg.startswith("--markdown-out="):
            markdown_out = arg.split("=", 1)[1]
        elif arg == "--all":
            show_all = True
        elif arg.startswith("--"):
            print(f"bench_diff: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip())
        return 2

    baseline = load_records(paths[0])
    current = load_records(paths[1])
    if baseline is None or current is None:
        return 2

    thresholds = {"ratio": ratio_threshold, "speed": speed_threshold,
                  "latency": latency_threshold, "other": None}
    joined = sorted(set(baseline) & set(current))
    only_base = len(set(baseline) - set(current))
    only_cur = len(set(current) - set(baseline))

    rows = []
    regressions = 0
    improvements = 0
    tier_mismatches = 0
    for key in joined:
        dataset, scheme, metric, threads = key
        (base, base_tier), (cur, cur_tier) = baseline[key], current[key]
        kind, lower_better = metric_class(metric)
        if base == 0.0:
            delta_pct = 0.0 if cur == 0.0 else float("inf")
        else:
            delta_pct = (cur - base) / abs(base) * 100.0
        worse = delta_pct > 0 if lower_better else delta_pct < 0
        threshold = thresholds[kind]
        status = "ok"
        if base_tier != cur_tier and None not in (base_tier, cur_tier):
            # Different kernel tiers: informational, never a gate.
            status = f"tier-mismatch ({base_tier}→{cur_tier})"
            tier_mismatches += 1
        elif worse and threshold is not None and abs(delta_pct) > threshold:
            status = "REGRESSION"
            regressions += 1
        elif not worse and delta_pct != 0.0:
            status = "improved"
            improvements += 1
        if show_all or status != "ok":
            name = f"{dataset}/{scheme}"
            if threads is not None:
                name += f"@{threads}t"
            rows.append((name, metric, base, cur, delta_pct, status))

    lines = []
    lines.append(f"### bench diff: `{paths[0]}` → `{paths[1]}`")
    lines.append("")
    lines.append(
        f"{len(joined)} joined records ({only_base} only in baseline, "
        f"{only_cur} only in current) · ratio threshold {ratio_threshold}% · "
        f"speed threshold "
        f"{'off' if speed_threshold is None else f'{speed_threshold}%'} · "
        f"latency threshold "
        f"{'off' if latency_threshold is None else f'{latency_threshold}%'}")
    lines.append("")
    if rows:
        lines.append("| series | metric | baseline | current | delta | status |")
        lines.append("|---|---|---:|---:|---:|---|")
        for name, metric, base, cur, delta_pct, status in rows:
            delta = ("inf" if delta_pct == float("inf")
                     else f"{delta_pct:+.2f}%")
            lines.append(f"| {name} | {metric} | {base:.6g} | {cur:.6g} "
                         f"| {delta} | {status} |")
        lines.append("")
    summary = f"**{regressions} regression(s), {improvements} improvement(s)"
    if tier_mismatches:
        summary += f", {tier_mismatches} kernel-tier mismatch(es) not gated"
    lines.append(summary + ".**")

    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if markdown_out:
        try:
            with open(markdown_out, "w", encoding="utf-8") as f:
                f.write(report)
        except OSError as e:
            print(f"bench_diff: cannot write {markdown_out}: {e}",
                  file=sys.stderr)
            return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
