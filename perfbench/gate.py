"""Correctness gate for one ``freedilation suite`` report.

A run passes when the process exited 0, the report says ``overall_pass``,
every check entry has ``passed`` set with ``residual <= tol``, and the report
holds exactly the check names its mode calls for.  A run that misses any of
these counts every check it should have made as failed.  Repeats with the
same seed must also give the same fingerprint; the caller compares them.
"""

from __future__ import annotations

import hashlib
import json

# Check names per mode, in the order the suite runs them (free mode with at
# least two factors, as in every workload here).
EXPECTED_CHECKS = {
    "single": ("construction", "unitarity", "power_dilation", "faithfulness"),
    "doubly": ("construction", "unitarity", "power_dilation", "double_commutation"),
    "tensor": (
        "construction",
        "unitarity",
        "power_dilation",
        "tensor_independence",
        "faithfulness",
    ),
    "free": (
        "construction",
        "unitarity",
        "dilation_identity",
        "free_independence",
        "traciality",
        "oracle_equivalence",
        "faithfulness",
    ),
}


def problems(report: dict | None, exit_code: int, mode: str) -> list[str]:
    """Every way the run misses the gate; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not isinstance(report, dict):
        return ["no report"]
    found: list[str] = []
    if report.get("overall_pass") is not True:
        found.append("overall_pass is not true")
    checks = report.get("checks")
    if not isinstance(checks, list):
        return found + ["report has no check list"]
    names = tuple(c.get("name") for c in checks if isinstance(c, dict))
    want = EXPECTED_CHECKS[mode]
    if names != want:
        found.append(f"checks {list(names)} differ from {list(want)}")
    for c in checks:
        if not isinstance(c, dict):
            found.append("check entry is not an object")
            continue
        name = c.get("name")
        if c.get("passed") is not True:
            found.append(f"{name}: passed is not true")
        residual, tol = c.get("residual"), c.get("tol")
        if not (_is_number(residual) and _is_number(tol) and residual <= tol):
            found.append(f"{name}: residual {residual!r} is not <= tol {tol!r}")
    return found


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def fingerprint(report: dict) -> str:
    """Digest of the report with every ``seconds`` field removed, the rule
    ``harness.report_fingerprint`` states for determinism comparison."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "seconds"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    text = json.dumps(strip(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
