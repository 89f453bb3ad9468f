#!/usr/bin/env python3
"""Bench-trajectory gate: compare working-tree BENCH_*.json files against
the committed baseline (``git show HEAD:<file>``) and fail if any headline
metric regressed beyond the tolerance (default 20%).

Usage:
    python3 scripts/bench_gate.py [--tolerance 0.20] [--baseline HEAD]

The direction of "better" is inferred from the key name:

* lower-is-better keys contain one of: ``overhead``, ``latency``, ``lag``,
  ``bytes``, ``allocation``, ``_ns``, ``_us``, ``_ms``, ``_p50``, ``_p99``,
  ``_p999``, ``calibration_err``, ``per_correct``. The quantile markers
  cover the histogram metrics ``BENCH_obs.json`` reports: a latency
  quantile is always a cost, whatever unit suffix it carries.
* higher-is-better keys contain one of: ``_per_s``, ``tput``, ``speedup``,
  ``accuracy``, or end in ``_x``. This covers the quality metrics of
  ``BENCH_quality.json`` (``*_accuracy``, ``*_accuracy_delta_vs_majority``):
  scenario runs are byte-deterministic, so any change in a quality key is a
  real inference change, not run-to-run noise — a PR that makes the service
  faster but dumber fails here like any perf regression.
* keys ending in ``_count`` are **informational**: reported, never gated
  (they describe workload shape — e.g. how many submissions a migration
  forwarded — not performance).

Lower-is-better markers win when both match (e.g. a ``..._overhead_..._x``
multiplier is an overhead, not a speedup). A metric (or whole file) with no
committed baseline is a **warning, never a failure** — new metrics appear
with every bench added and old ones retire; the gate only protects metrics
with a real baseline, and the warnings make the unprotected ones visible
so a typo'd key can't silently opt a metric out of the gate.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

LOWER_MARKERS = (
    "overhead",
    "latency",
    "lag",
    "bytes",
    "allocation",
    "_ns",
    "_us",
    "_ms",
    "_p50",
    "_p99",
    "_p999",
    "calibration_err",
    "per_correct",
)
HIGHER_MARKERS = ("_per_s", "tput", "speedup", "accuracy")


def direction(key: str) -> str | None:
    k = key.lower()
    if any(m in k for m in LOWER_MARKERS):
        return "lower"
    if any(m in k for m in HIGHER_MARKERS) or k.endswith("_x"):
        return "higher"
    return None


def baseline_json(repo: str, rev: str, name: str) -> dict | None:
    try:
        blob = subprocess.run(
            ["git", "-C", repo, "show", f"{rev}:{name}"],
            capture_output=True,
            check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def compare(base: dict, current: dict, tolerance: float) -> list[tuple[str, str, str]]:
    """Compares one BENCH file's metrics against its committed baseline.

    Returns one ``(status, key, message)`` row per key: the current keys in
    sorted order, then the retired ones (present only in ``base``).
    ``status`` is ``"ok"``, ``"regressed"``, ``"warning"`` (no baseline or
    no inferable direction), ``"info"`` (``_count`` keys) or ``"retired"``.
    Only ``"regressed"`` fails the gate.
    """
    rows = []
    for key in sorted(current):
        new = current[key]
        if key.endswith("_count"):
            rows.append(("info", key, f"{key} = {new:.6g} (informational, never gated)"))
            continue
        if key not in base:
            rows.append(("warning", key, f"{key} = {new:.6g} — new metric, no baseline"))
            continue
        d = direction(key)
        if d is None:
            rows.append(("warning", key, f"{key} has no inferable direction — unchecked"))
            continue
        old = base[key]
        if old == 0:
            rows.append(("ok", key, f"{key}: {old:.6g} -> {new:.6g} (zero baseline)"))
            continue
        change = (new - old) / abs(old)
        regressed = (d == "lower" and change > tolerance) or (
            d == "higher" and change < -tolerance
        )
        arrow = "LOWER-IS-BETTER" if d == "lower" else "higher-is-better"
        status = "regressed" if regressed else "ok"
        verdict = "REGRESSED" if regressed else "ok"
        message = f"{key}: {old:.6g} -> {new:.6g} ({change:+.1%}, {arrow}) {verdict}"
        rows.append((status, key, message))
    for key in sorted(set(base) - set(current)):
        rows.append(("retired", key, f"{key} retired (was {base[key]:.6g})"))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", "0.20")),
        help="allowed fractional regression before failing (default 0.20)",
    )
    parser.add_argument(
        "--baseline",
        default="HEAD",
        help="git revision holding the committed baseline (default HEAD)",
    )
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = []
    warnings = []
    compared = 0

    def warn(message: str) -> None:
        warnings.append(message)
        print(f"WARNING: {message}")

    for path in sorted(glob.glob(os.path.join(repo, "BENCH_*.json"))):
        name = os.path.basename(path)
        with open(path) as f:
            current = json.load(f)
        base = baseline_json(repo, args.baseline, name)
        if base is None:
            warn(
                f"{name}: no baseline at {args.baseline} — "
                f"{len(current)} metric(s) unchecked (new file)"
            )
            continue
        for status, _key, message in compare(base, current, args.tolerance):
            if status == "warning":
                warn(f"{name}: {message}")
                continue
            print(f"{name}: {message}")
            if status in ("ok", "regressed"):
                compared += 1
            if status == "regressed":
                failures.append(f"{name}: {message}")

    print(
        f"\n{compared} metrics compared against {args.baseline}, "
        f"{len(warnings)} warning(s)"
    )
    if failures:
        print(f"bench gate FAILED: {len(failures)} metric(s) regressed > {args.tolerance:.0%}")
        for f in failures:
            print(f"  {f}")
        return 1
    print("bench gate passed" + (" (with warnings)" if warnings else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
