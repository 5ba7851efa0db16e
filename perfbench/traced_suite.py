"""Run the ``freedilation`` CLI in this process with spans around its layers.

    python3 perfbench/traced_suite.py --spans OUT.jsonl --summary OUT.json -- suite --input ...

Each function named in ``SPANNED`` and ``COUNTED`` is replaced by a wrapper
in every ``freedilation.*`` module that binds it, because ``harness``, ``cli``
and ``ncprob`` import names directly and patching the defining module alone
would miss their calls.  Spans (name, parent, start, end) stay in memory and
are written as JSONL when the CLI returns, each with its self time: its
duration minus the time its child spans cover.  ``COUNTED`` functions are
leaves called hundreds of thousands of times, so they get call and byte
counters instead of spans.  The summary holds per-name call counts, the
inclusive time of outermost spans, self time, and the counters.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter, defaultdict

import freedilation
import freedilation.cli

SPANNED = {
    "harness": ("ingest", "build_model"),
    "operator_core": ("operator_norm", "defect_pair"),
    "dilation": (
        "finite_unitary_dilation",
        "doubly_commuting_dilation",
        "verify_power_dilation",
    ),
    "free_product": ("build_fock", "left_representation", "restricted_unitarity_residual"),
    "ncprob": ("state_moment", "center", "free_mixed_moment_oracle", "evaluate_word"),
}
COUNTED = {"operator_core": ("adjoint", "as_matrix"), "ncprob": ("apply_word",)}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def array_counter(self, name: str, fn):
        """Counts calls and the bytes of the array each call returns."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            counts[name + ".bytes"] += out.nbytes
            return out

        return wrapper

    def word_counter(self, name: str, fn):
        """Counts calls and letters applied (the word is the first argument)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(word, *args, **kwargs):
            counts[name + ".calls"] += 1
            counts["ncprob.letters_applied"] += len(word.letters)
            return fn(word, *args, **kwargs)

        return wrapper

    def suite_plan(self, fn):
        """Wraps each check thunk of the plan in a ``harness.check.<name>`` span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return [(n, self.span(f"harness.check.{n}", t)) for n, t in fn(*args, **kwargs)]

        return wrapper

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def summary(self) -> dict:
        calls: Counter = Counter(self.names)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for sid, (name, own) in enumerate(zip(self.names, self._self_times())):
            self_s[name] += own
            if not self._inside_same_name(sid):
                total[name] += self.ends[sid] - self.starts[sid]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
        }

    def _inside_same_name(self, sid: int) -> bool:
        name = self.names[sid]
        parent = self.parents[sid]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write_spans(self, path: str) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, own) in enumerate(zip(self.names, self._self_times())):
                span = {
                    "id": sid,
                    "parent": self.parents[sid],
                    "name": name,
                    "start_s": self.starts[sid] - origin,
                    "dur_s": self.ends[sid] - self.starts[sid],
                    "self_s": own,
                }
                fh.write(json.dumps(span) + "\n")


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every freedilation module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "freedilation" or modname.startswith("freedilation.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    pkg = freedilation
    for module, names in SPANNED.items():
        for name in names:
            fn = getattr(getattr(pkg, module), name)
            _rebind(fn, tracer.span(f"{module}.{name}", fn))
    for module, names in COUNTED.items():
        for name in names:
            fn = getattr(getattr(pkg, module), name)
            make = tracer.word_counter if name == "apply_word" else tracer.array_counter
            _rebind(fn, make(f"{module}.{name}", fn))
    plan = pkg.harness.suite_plan
    _rebind(plan, tracer.suite_plan(plan))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", required=True, help="JSONL file for the spans")
    p.add_argument("--summary", required=True, help="JSON file for the per-layer summary")
    p.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments after -- go to the CLI")
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli.main", freedilation.cli.main)(cli_args)
    tracer.write_spans(args.spans)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, **tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
