"""Benchmark of ``freedilation suite``, the command that builds a dilation and
certifies it.

    python3 perfbench/run.py --workload free_pair --seed 1 --seconds 24 --trace 0

Run it from the repository root.  The workload's scenario files are made
from ``--seed`` (see ``workloads.py``) and each one is run through the real
CLI, ``python3 -m freedilation suite``, in a fresh process, so start-up and
cold BLAS are included as a user pays them.  Every report passes the gate in
``gate.py``, and repeats of a scenario give the same report fingerprint, or
all its checks count as failed; ``fail_share`` (failed / attempted checks)
is printed with the metrics.

``--trace 0`` makes two passes over the workload's scenarios, and more
while the next should end within ``--seconds``, and prints, with tracing
off:

* ``suite_s``: wall seconds of the suite processes of one pass, summed over
  the scenarios; the median over passes.
* ``suite_cpu_s``: user + system CPU seconds of the same processes.
* ``peak_rss_mb``: peak resident memory of a suite process, the largest over
  the pass's scenarios, read per process with ``os.wait4``.
* ``setup_s``: seconds of ``ingest`` + ``build_model`` over the scenarios,
  the median of repeats in one process (``probe.py setup``).

``--trace 1`` ignores ``--seconds``: it makes one untraced pass, one pass
under ``traced_suite.py`` and one with ``OPENBLAS_NUM_THREADS=1``, and
prints the per-layer metrics: span times and call counts per module,
``cli.import_s``, ``suite_1t_s`` (the single-threaded baseline) and
``trace_overhead_s`` (traced minus untraced pass).  Self time per span name
goes to the result file, and every span to ``<scenario>.spans.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (checks, the construction entry included) and
``metrics``.  Everything the run writes goes under ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("free_pair", "free_wide", "dense_modes")
OUT_DIR = Path(".perfbench_run")
# The whole run must end within 180 s; children are killed past this.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "suite_s": "s",
    "suite_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics: (name, unit).  Times are inclusive seconds of the
# outermost span of that name, summed over the workload's scenarios.
CHECK_NAMES = (
    "unitarity",
    "power_dilation",
    "dilation_identity",
    "double_commutation",
    "tensor_independence",
    "free_independence",
    "traciality",
    "oracle_equivalence",
    "faithfulness",
)
SPAN_TIMES = (
    "harness.ingest",
    "harness.build_model",
    *(f"harness.check.{n}" for n in CHECK_NAMES),
    "operator_core.operator_norm",
    "operator_core.defect_pair",
    "dilation.finite_unitary_dilation",
    "dilation.doubly_commuting_dilation",
    "dilation.verify_power_dilation",
    "free_product.build_fock",
    "free_product.left_representation",
    "free_product.restricted_unitarity_residual",
    "ncprob.state_moment",
    "ncprob.center",
    "ncprob.free_mixed_moment_oracle",
    "ncprob.evaluate_word",
)
SPAN_CALLS = (
    "operator_core.operator_norm",
    "dilation.verify_power_dilation",
    "ncprob.state_moment",
    "ncprob.center",
    "ncprob.free_mixed_moment_oracle",
    "ncprob.evaluate_word",
)
COUNTERS = (
    "operator_core.adjoint.calls",
    "operator_core.adjoint.bytes",
    "operator_core.as_matrix.calls",
    "operator_core.as_matrix.bytes",
    "ncprob.apply_word.calls",
    "ncprob.letters_applied",
)
PER_LAYER = {
    **{f"{n}.s": "s" for n in SPAN_TIMES},
    **{f"{n}.calls": "count" for n in SPAN_CALLS},
    **{n: ("B" if n.endswith(".bytes") else "count") for n in COUNTERS},
    "harness.oracle_words": "count",
    "free_product.fock_dim": "count",
    "free_product.gen_bytes": "B",
    "cli.import_s": "s",
    "suite_1t_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here: no package, or a helper failed."""


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], env: dict, stdout: Path, deadline: float) -> Proc:
    """Run a child to completion, killing it at ``deadline`` (perf_counter
    time).  Resource use is read for this child alone with ``os.wait4``;
    ``RUSAGE_CHILDREN`` would keep the largest RSS of any earlier child."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        os.close(pidfd)
    return Proc(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


@dataclass
class Bench:
    seed: int
    work: Path
    deadline: float
    env: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprints: dict[tuple, str] = field(default_factory=dict)
    scenarios: list[Path] = field(default_factory=list)

    def helper(self, name: str, script: str, *args: str) -> dict | list:
        """Run a helper script of this benchmark and parse its JSON output."""
        out = self.work / f"{name}.out"
        proc = spawn([sys.executable, str(HERE / script), *args], self.env, out, self.deadline)
        if proc.code != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip()
            raise BenchError(f"{script} {' '.join(args)} exited {proc.code}: {err[-2000:]}")
        return json.loads(out.read_text())

    def suite(self, path: Path, tag: str, env: dict | None = None, traced: bool = False) -> Proc:
        """One ``freedilation suite`` process on one scenario, gated."""
        report_path = self.work / f"{path.stem}.{tag}.report.json"
        report_path.unlink(missing_ok=True)
        cli = ["suite", "--input", str(path), "--seed", str(self.seed), "--output", str(report_path)]
        if traced:
            summary = self.work / f"{path.stem}.summary.json"
            summary.unlink(missing_ok=True)
            argv = [
                sys.executable,
                str(HERE / "traced_suite.py"),
                "--spans", str(self.work / f"{path.stem}.spans.jsonl"),
                "--summary", str(summary),
                "--", *cli,
            ]
        else:
            argv = [sys.executable, "-m", "freedilation", *cli]
        env = env or self.env
        proc = spawn(argv, env, self.work / f"{path.stem}.{tag}.out", self.deadline)
        # BLAS splits sums differently at another thread count, which can move
        # the last digit of a residual, so only same-count repeats must match.
        self._gate(path, tag, proc.code, report_path, env.get("OPENBLAS_NUM_THREADS"))
        return proc

    def _gate(self, path: Path, tag: str, code: int, report_path: Path, threads) -> None:
        mode = json.loads(path.read_text())["mode"]
        try:
            report = json.loads(report_path.read_text())
        except (OSError, json.JSONDecodeError):
            report = None
        found = gate.problems(report, code, mode)
        if not found:
            digest = gate.fingerprint(report)
            first = self.fingerprints.setdefault((path.name, threads), digest)
            if digest != first:
                found.append("report_fingerprint differs from an earlier repeat")
        checks = len(gate.EXPECTED_CHECKS[mode])
        self.attempted += checks
        if found:
            self.failed += checks
            self.problems.extend(f"{path.name} [{tag}]: {p}" for p in found)

    def run_pass(self, tag: str, env: dict | None = None, traced: bool = False) -> list[Proc]:
        return [self.suite(p, tag, env, traced) for p in self.scenarios]


def untraced(b: Bench, seconds: float) -> tuple[dict, dict]:
    setup = b.helper(
        "setup", "probe.py", "setup", "--seed", str(b.seed), *map(str, b.scenarios)
    )
    passes: list[list[Proc]] = []
    spent = 0.0
    # Two passes at least, so that every run compares report fingerprints
    # across repeats; more while the next should end within ``seconds`` at
    # the mean pass time so far.
    while len(passes) < 2 or (
        spent * (len(passes) + 1) / len(passes) <= seconds and time.perf_counter() < b.deadline
    ):
        procs = b.run_pass(f"p{len(passes)}")
        passes.append(procs)
        spent += sum(p.wall_s for p in procs)
    metrics = {
        "suite_s": statistics.median(sum(p.wall_s for p in ps) for ps in passes),
        "suite_cpu_s": statistics.median(sum(p.cpu_s for p in ps) for ps in passes),
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in ps) for ps in passes),
    }
    info = {
        "machine": setup["machine"],
        "passes": len(passes),
        "setup_repeats": len(setup["setup_s"]),
        "raw": [[p.__dict__ for p in ps] for ps in passes],
    }
    return metrics, info


def traced(b: Bench) -> tuple[dict, dict]:
    imports = [b.helper(f"import{i}", "probe.py", "import") for i in range(3)]
    plain = b.run_pass("plain")
    tr = b.run_pass("traced", traced=True)
    one = b.run_pass("1t", env={**b.env, "OPENBLAS_NUM_THREADS": "1"})

    metrics: dict[str, float] = {n: 0.0 if u == "s" else 0 for n, u in PER_LAYER.items()}
    self_s: dict[str, float] = {}
    for path in b.scenarios:
        summary_path = b.work / f"{path.stem}.summary.json"
        report_path = b.work / f"{path.stem}.traced.report.json"
        if not summary_path.exists() or not report_path.exists():
            continue
        summary = json.loads(summary_path.read_text())
        for name in SPAN_TIMES:
            metrics[f"{name}.s"] += summary["total_s"].get(name, 0.0)
        for name in SPAN_CALLS:
            metrics[f"{name}.calls"] += summary["calls"].get(name, 0)
        for name in COUNTERS:
            metrics[name] += summary["counts"].get(name, 0)
        for name, t in summary["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + t
        checks = {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}
        if "oracle_equivalence" in checks:
            metrics["harness.oracle_words"] += checks["oracle_equivalence"]["details"]["words"]
        fock_dim = checks["construction"]["details"].get("fock_dim")
        if fock_dim is not None:
            n_gens = len(json.loads(path.read_text())["factors"])
            metrics["free_product.fock_dim"] += fock_dim
            metrics["free_product.gen_bytes"] += n_gens * fock_dim**2 * 16
    metrics["cli.import_s"] = statistics.median(i["import_s"] for i in imports)
    metrics["suite_1t_s"] = sum(p.wall_s for p in one)
    metrics["trace_overhead_s"] = sum(p.wall_s for p in tr) - sum(p.wall_s for p in plain)
    info = {
        "machine": imports[0]["machine"],
        "suite_s_untraced": sum(p.wall_s for p in plain),
        "suite_s_traced": sum(p.wall_s for p in tr),
        "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
        "spans": [str(b.work / f"{p.stem}.spans.jsonl") for p in b.scenarios],
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.perf_counter()
    root = Path.cwd()
    try:
        if args.seed < 0:
            raise BenchError(f"--seed must be >= 0, got {args.seed}")
        if not (root / "src" / "freedilation" / "__init__.py").is_file():
            raise BenchError(f"no freedilation package under {root / 'src'}; run from the repository root")
        work = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
        work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        b = Bench(args.seed, work, start + RUN_DEADLINE_S, env)
        b.scenarios = [
            Path(s)
            for s in b.helper(
                "generate", "workloads.py",
                "--workload", args.workload, "--seed", str(args.seed), "--out", str(work / "scenarios"),
            )
        ]
        metrics, info = traced(b) if args.trace else untraced(b, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": b.attempted,
        "failed": b.failed,
        "fail_share": b.failed / b.attempted if b.attempted else 1.0,
        "problems": b.problems,
        "metrics": metrics,
        **info,
    }
    (OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"machine: {json.dumps(info['machine'])}")
    for problem in b.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print(f"{'fail_share':48s} {record['fail_share']:>16.6g} ({b.failed}/{b.attempted} checks)")
    if not args.trace:
        print(f"{'passes':48s} {info['passes']:>16d} (samples of suite_s)")
    result = {
        "correct": b.failed == 0 and b.attempted > 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
