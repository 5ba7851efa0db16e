"""Scenario ingestion, theorem suites, and report assembly.

A scenario file describes a family of contractions with states and budgets;
the suite builds the requested dilation model and runs every applicable
certificate, collecting residuals, witnesses, and timings into a report that
is byte-identical across runs (timing fields excluded).  The free product
model and the free-probability module load only on free paths, the Gram
certificates (``_gram``) on tensor and free paths.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ._inputs import DEFAULT_DEGREE, MODES, IngestError, default_mode, read_scenario
from ._version import __version__
from .dilation import (
    DilationResult,
    dilation_residuals,
    doubly_commuting_dilation,
    finite_unitary_dilation,
    unitarity_residual,
)
from .ncprob import (
    CheckReport,
    GenSet,
    _alternating_words,
    _ordered_words,
    _word,
    faithfulness_check,
    worst_commutator,
)
from .operator_core import DEFAULT_TOL, PhaseClock, State, _pad_rows, check_dim_cap
from .serialization import (
    matrix_from_obj,
    matrix_to_obj,
    state_from_obj,
    state_to_obj,
)

if TYPE_CHECKING:
    from .free_product import FreeDilationScenario


@dataclass
class Scenario:
    """A fully validated problem description: factors, mode, and budgets."""

    mode: str
    factors: list[tuple[np.ndarray, State]]
    degree: int = DEFAULT_DEGREE
    trunc: int = 4
    check_degree: int = 3
    max_alt: int = 4
    # accepted, validated and recorded in reports, but no check samples
    samples: int = 100
    tol: float = DEFAULT_TOL
    seed: int = 0
    sources: tuple[tuple[str, str], ...] = field(default_factory=tuple, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise IngestError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.factors:
            raise IngestError("scenario needs at least one factor")
        if self.mode == "single" and len(self.factors) != 1:
            raise IngestError(f"single mode takes exactly one factor, got {len(self.factors)}")
        for key in ("degree", "trunc", "check_degree", "max_alt"):
            if getattr(self, key) < 1:
                raise IngestError(f"budget {key} must be >= 1, got {getattr(self, key)}")
        if self.samples < 0:
            raise IngestError(f"samples must be >= 0, got {self.samples}")
        if self.seed < 0:
            raise IngestError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.tol < math.inf:
            raise IngestError(f"tol must be a positive finite number, got {self.tol}")
        for idx, (mat, st) in enumerate(self.factors):
            if mat.shape != (st.dim, st.dim):
                raise IngestError(
                    f"factors[{idx}]: matrix shape {mat.shape} does not match state dim {st.dim}"
                )
        if self.mode in ("doubly",):
            dims = {m.shape[0] for m, _ in self.factors}
            if len(dims) != 1:
                raise IngestError(f"doubly mode needs factors on a common space, got dims {sorted(dims)}")

    def to_obj(self) -> dict:
        return {
            "mode": self.mode,
            "factors": [
                {"matrix": matrix_to_obj(m), "state": state_to_obj(s)}
                for m, s in self.factors
            ],
            "degree": self.degree,
            "trunc": self.trunc,
            "check_degree": self.check_degree,
            "max_alt": self.max_alt,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
        }


def _load_part(value, loader: Callable, what: str):
    """A factor part: a matrix or state object, validated by ``loader``."""
    try:
        return loader(value)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise IngestError(f"{what}: {exc}") from None


def scenario_from_obj(obj: dict, sources=()) -> Scenario:
    """Validate a scenario object whose factor parts are inline (as
    :func:`_inputs.read_scenario` leaves them); ``sources`` are the files read."""
    if not isinstance(obj, dict):
        raise IngestError(f"scenario must be a JSON object, got {type(obj).__name__}")
    raw_factors = obj.get("factors")
    if not isinstance(raw_factors, list) or not raw_factors:
        raise IngestError("scenario field 'factors' must be a nonempty list")
    factors: list[tuple[np.ndarray, State]] = []
    for idx, entry in enumerate(raw_factors):
        if not isinstance(entry, dict) or "matrix" not in entry:
            raise IngestError(f"factors[{idx}]: expected an object with a 'matrix' field")
        mat = _load_part(entry["matrix"], matrix_from_obj, f"factors[{idx}].matrix")
        if entry.get("state") is None:
            st = State.basis_vector(mat.shape[0], 0)
        else:
            st = _load_part(entry["state"], state_from_obj, f"factors[{idx}].state")
        factors.append((mat, st))
    mode = obj.get("mode", default_mode(len(factors)))
    kwargs = {}
    for key in ("degree", "trunc", "check_degree", "max_alt", "samples", "seed"):
        if key in obj:
            if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                raise IngestError(f"scenario field {key!r} must be an integer, got {obj[key]!r}")
            kwargs[key] = obj[key]
    if "tol" in obj:
        if not isinstance(obj["tol"], (int, float)) or isinstance(obj["tol"], bool):
            raise IngestError(f"scenario field 'tol' must be a number, got {obj['tol']!r}")
        try:
            kwargs["tol"] = float(obj["tol"])
        except OverflowError:  # an integer past the float range, refused as inf
            kwargs["tol"] = math.inf
    try:
        return Scenario(
            mode=mode, factors=factors, sources=tuple(sources), **kwargs
        )
    except (ValueError, TypeError) as exc:
        raise IngestError(str(exc)) from None


def ingest(path: str | Path, overrides: dict | None = None, read=None) -> Scenario:
    """Load and fully validate a scenario file; flag overrides applied on top.

    ``read`` is what :func:`_inputs.read_scenario` returned for ``path``,
    taken instead of reading the files again.
    """
    obj, sources = read or read_scenario(path)
    sc = scenario_from_obj(obj, sources)
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        if clean:
            sc = replace(sc, **clean)
    return sc


def emit(sc: Scenario, path: str | Path | None = None) -> str:
    """Canonical JSON for a scenario (matrices inlined); optionally written out."""
    text = json.dumps(sc.to_obj(), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


# ---------------------------------------------------------------------------
# model construction


@dataclass
class Model:
    """A constructed dilation model: generators, state, and the raw parts;
    one dilation record in single and doubly mode, one per tensor factor."""

    gens: GenSet
    state: State
    dilations: tuple[DilationResult, ...] = ()
    free: FreeDilationScenario | None = None
    factor_models: list[tuple[GenSet, State]] = field(default_factory=list)
    # seconds per construction phase (``PhaseClock``)
    phase_seconds: Mapping[str, float] = field(default_factory=dict)


def _embedded_state(res: DilationResult, st: State) -> State:
    """``phi(J* . J)`` on the dilation space: the columns ``J v_k``, same weights."""
    return State.from_columns(_pad_rows(st.columns, res.ambient_dim), st.weights)


def build_model(sc: Scenario) -> Model:
    """Construct the dilation model a scenario's mode calls for; the
    embedded states count to the ``embedding`` phase."""
    clock = PhaseClock()
    if sc.mode == "single":
        t, st = sc.factors[0]
        res = finite_unitary_dilation(t, sc.degree, sc.tol)
        clock.add(res.phase_seconds)
        emb = _embedded_state(res, st)
        clock.lap("embedding")
        return Model(
            gens=res.gens, state=emb, dilations=(res,), factor_models=[(res.gens, emb)], phase_seconds=clock
        )
    if sc.mode == "doubly":
        res = doubly_commuting_dilation([t for t, _ in sc.factors], sc.degree, sc.tol)
        clock.add(res.phase_seconds)
        emb = _embedded_state(res, sc.factors[0][1])
        clock.lap("embedding")
        return Model(gens=res.gens, state=emb, dilations=(res,), phase_seconds=clock)
    if sc.mode == "tensor":
        # the Gram certificates' module, loaded before the model's arrays
        # exist so that its compile's peak does not stack on them
        from ._gram import make_tensor_independent

        # refused before any factor is dilated
        dims = [(sc.degree + 1) * t.shape[0] for t, _ in sc.factors]
        check_dim_cap(math.prod(dims), "tensor product")
        dilations, parts, factor_models = [], [], []
        for i, (t, st) in enumerate(sc.factors, start=1):
            r = finite_unitary_dilation(t, sc.degree, sc.tol)
            clock.add(r.phase_seconds)
            emb = _embedded_state(r, st)
            dilations.append(r)
            parts.append((r.gens[1], emb))
            factor_models.append((GenSet({i: r.gens[1]}), emb))
            clock.lap("embedding")
        gens, joint = make_tensor_independent(parts)
        clock.lap("embedding")
        return Model(
            gens=gens,
            state=joint,
            dilations=tuple(dilations),
            factor_models=factor_models,
            phase_seconds=clock,
        )
    from .free_product import free_unitary_dilation

    fds = free_unitary_dilation(sc.factors, sc.degree, sc.trunc, sc.tol)
    return Model(
        gens=fds.unitaries,
        state=fds.vacuum,
        free=fds,
        factor_models=[fds.factor_model(i) for i in range(1, fds.n_factors + 1)],
        phase_seconds=fds.phase_seconds,
    )


# ---------------------------------------------------------------------------
# suite checks


def _free_dims(model: Model) -> dict:
    """The two truncated free product dimensions, for a free model's details."""
    if model.free is None:
        return {}
    return {"fock_dim": model.free.dim, "fock_h_dim": model.free.fock_h.dim}


def _check_unitarity(sc: Scenario, model: Model) -> CheckReport:
    gens = model.gens
    if model.free is not None:
        from .free_product import restricted_unitarity_residual

        residual = partial(restricted_unitarity_residual, model.free)
        witness = {"restricted_to": f"words shorter than {sc.trunc}"}
        # U*U and U U* on the short columns of one Fock group per pattern,
        # where their norms are those over all the short columns, exactly
        short = model.free.fock_k.short_indices()
        columns = max(len(gens[i].pattern_columns(short)) for i in gens.ids)
        per_factor = 2
    else:
        # U*U on each generator's support columns, where the norm is exact
        residual, witness, per_factor = partial(unitarity_residual, gens), {}, 1
        columns = max(len(gens.support((i,))) for i in gens.ids)
    residuals = {i: residual(i) for i in gens.ids}
    witness["factor"] = max(residuals, key=residuals.get)  # the first of the worst
    worst = residuals[witness["factor"]]
    words = per_factor * len(residuals)
    return CheckReport(
        name="unitarity",
        residual=worst,
        tol=sc.tol,
        passed=worst <= sc.tol,
        witness=witness,
        details={
            "columns": columns,
            "words": words,
            "letters_applied": 2 * words,
            **_free_dims(model),
        },
    )


def _check_power_dilation(sc: Scenario, model: Model) -> CheckReport:
    if model.free is not None:
        name = "dilation_identity"
        fds = model.free
        table = _alternating_words(fds.unitaries.ids, (1,), min(sc.max_alt, sc.trunc), sc.degree, sc.degree)
        records = [({}, fds.unitaries, fds.s_ops, fds.coords, table)]
    else:
        name = "power_dilation"
        records = [
            (
                {"factor": i} if sc.mode == "tensor" else {},
                res.gens,
                res.contractions,
                np.arange(res.contractions.dim),
                _ordered_words(len(res.gens.ids), sc.degree),
            )
            for i, res in enumerate(model.dilations, start=1)
        ]
    worst = -1.0
    witness = None
    count = letters = 0
    for where, gens, contractions, coords, table in records:
        residuals, applied = dilation_residuals(gens, contractions, coords, table)
        count += len(table)
        letters += applied
        at = int(np.argmax(residuals))  # the first word of the worst
        if residuals[at] > worst:
            worst = float(residuals[at])
            witness = {**where, "word": _word(table[at]).format()}
    worst = max(worst, 0.0)
    return CheckReport(
        name=name,
        residual=worst,
        tol=sc.tol,
        passed=worst <= sc.tol,
        witness=witness,
        details={
            "degree": sc.degree,
            "words": count,
            "letters_applied": letters,
            **_free_dims(model),
        },
    )


def _check_tensor_independence(sc: Scenario, model: Model) -> CheckReport:
    from ._gram import _small_degree, tensor_independence_check

    degree = _small_degree(sc.check_degree)
    return tensor_independence_check(model.state, model.gens, degree=degree, tol=sc.tol)


def _check_free_independence(sc: Scenario, model: Model) -> CheckReport:
    from ._gram import free_independence_check

    return free_independence_check(
        model.state,
        model.gens,
        max_len=min(sc.max_alt, sc.trunc),
        degree=min(sc.check_degree, sc.degree),
        tol=sc.tol,
    )


def _check_traciality(sc: Scenario, model: Model) -> CheckReport:
    from ._gram import _small_degree, trace_check

    degree = _small_degree(sc.check_degree)
    if model.free is not None:
        # a product of two words of at most ``trunc`` letters each goes no
        # deeper than ``trunc`` on a path back to the vacuum, so its vacuum
        # moment is exact
        degree = min(degree, sc.trunc)
    return trace_check(model.state, model.gens, degree=degree, tol=sc.tol)


def _marginals(model: Model) -> dict:
    """Each factor's marginal, keyed by its 1-based id, from the factor models."""
    from ._freeprob import matrix_marginal

    return {i: matrix_marginal(g, s) for i, (g, s) in enumerate(model.factor_models, start=1)}


def _check_oracle(sc: Scenario, model: Model) -> CheckReport:
    from ._freeprob import MAX_ORACLE_LETTERS, oracle_equivalence_check

    # the words reach 2 * degree letters (a run, then its adjoint): refused
    # before they are enumerated, not at the first one over the oracle's cap
    if 2 * sc.degree > MAX_ORACLE_LETTERS:
        raise ValueError(
            f"oracle words of degree {sc.degree} reach {2 * sc.degree} letters, "
            f"exceeding oracle cap {MAX_ORACLE_LETTERS}; lower the degree"
        )
    max_blocks = min(sc.max_alt, sc.trunc)
    rep = oracle_equivalence_check(model.state, model.gens, _marginals(model), max_blocks, sc.degree, sc.tol)
    rep.details["max_blocks"] = max_blocks
    return rep


def _check_faithfulness(sc: Scenario, model: Model) -> CheckReport:
    degree = min(sc.check_degree, sc.degree)
    if not model.factor_models:
        # doubly mode keeps no per-factor models: certify the joint word span
        return faithfulness_check(model.state, model.gens, degree)
    reps = [faithfulness_check(s, g, degree) for g, s in model.factor_models]
    worst, witness = 0.0, None
    for i, rep in enumerate(reps, start=1):
        # the first of the worst rank gaps; a negative gap never counts
        if rep.residual > worst or (rep.residual == worst and witness is None):
            worst, witness = rep.residual, {"factor": i, **rep.witness}
    return CheckReport(
        name="faithfulness",
        residual=worst,
        tol=0.5,
        passed=all(rep.passed for rep in reps),
        witness=witness,
        details={
            "degree": degree,
            "per_factor": [{"factor": i, **rep.details} for i, rep in enumerate(reps, start=1)],
        },
    )


def _check_double_commutation(sc: Scenario, model: Model) -> CheckReport:
    gens = model.gens
    res, witness = worst_commutator(gens)
    n = len(gens.ids)
    pairs = itertools.combinations(gens.ids, 2)
    return CheckReport(
        name="double_commutation",
        residual=res,
        tol=sc.tol,
        passed=res <= sc.tol,
        witness=witness,
        # ``[A_i, A_j]`` and ``[A_i*, A_j]`` for each pair, on the pair's
        # support columns; ``columns`` is the widest such panel
        details={
            "operators": n,
            "commutators": n * (n - 1),
            "columns": max((len(gens.support(p)) for p in pairs), default=0),
        },
    )


CHECKS: dict[str, Callable[[Scenario, Model], CheckReport]] = {
    "unitarity": _check_unitarity,
    "power_dilation": _check_power_dilation,
    "dilation_identity": _check_power_dilation,
    "double_commutation": _check_double_commutation,
    "tensor_independence": _check_tensor_independence,
    "free_independence": _check_free_independence,
    "traciality": _check_traciality,
    "oracle_equivalence": _check_oracle,
    "faithfulness": _check_faithfulness,
}


def suite_plan(sc: Scenario, model: Model) -> list[tuple[str, Callable[[], CheckReport]]]:
    """Named check thunks applicable to the scenario's mode, in run order."""
    names = ["unitarity", "dilation_identity" if sc.mode == "free" else "power_dilation"]
    if sc.mode == "doubly":
        names.append("double_commutation")
    if sc.mode == "tensor":
        names.append("tensor_independence")
    if sc.mode == "free" and model.free.n_factors >= 2:
        names += ["free_independence", "traciality", "oracle_equivalence"]
    if sc.mode in ("single", "tensor", "free"):
        names.append("faithfulness")
    return [(name, partial(CHECKS[name], sc, model)) for name in names]


class _Report(dict):
    """The report dict; ``to_obj`` returns it unchanged, for callers of the
    former report object (the benchmark's tests in ``perfbench/tests``)."""

    def to_obj(self) -> dict:
        return self


def _entry(name: str, step: Callable[[], CheckReport], tol: float, failed: dict) -> dict:
    """A report entry: the step's report and the ``seconds`` it took.  A
    step refused with ``ValueError`` or ``KeyError`` fails, with the error
    as its witness and ``failed`` as its details; a non-finite residual
    reads ``inf``."""
    t0 = time.perf_counter()
    try:
        rep = step()
    except (ValueError, KeyError) as exc:
        rep = CheckReport(name, math.inf, tol, False, {"error": str(exc)}, failed)
    entry = rep.to_obj()
    if not math.isfinite(entry["residual"]):
        entry["residual"] = math.inf
    entry["seconds"] = round(time.perf_counter() - t0, 6)
    return entry


def run_theorem_suite(sc: Scenario, subset: Sequence[str] | None = None) -> dict:
    """Build the scenario's model and run every applicable check: the
    report, as the JSON object ``freedilation suite`` writes.

    A refused construction or check is a failing entry rather than an
    exception; ``subset`` restricts the check names to run.
    """
    model = None

    def construct() -> CheckReport:
        nonlocal model
        if sc.mode == "free" and len(sc.factors) > 1:  # its checks' modules, as in build_model's tensor branch
            from . import _freeprob, _gram  # noqa: F401
        model = build_model(sc)
        # the bytes of the generators the model holds: in free mode the
        # dilated and the original factors' letter actions
        details = {"ambient_dim": model.gens.dim, "mode": sc.mode, "gen_bytes": model.gens.nbytes}
        if model.free is not None:
            free = model.free
            details.update(fock_dim=free.dim, base_fock_dim=free.fock_h.dim)
            details["gen_bytes"] += free.s_ops.nbytes
        return CheckReport("construction", 0.0, sc.tol, True, None, details)

    entries = [_entry("construction", construct, sc.tol, {"mode": sc.mode})]
    if model is not None:
        # timings, so under "seconds" keys, which report_fingerprint strips
        entries[0]["phases"] = {k: {"seconds": round(v, 6)} for k, v in model.phase_seconds.items()}
        plan = suite_plan(sc, model)
        entries += [_entry(name, step, sc.tol, {}) for name, step in plan if subset is None or name in subset]
    return _Report(
        version=__version__,
        scenario=sc.to_obj(),
        inputs=[{"path": p, "sha256": h} for p, h in sc.sources],
        checks=entries,
        overall_pass=all(entry["passed"] for entry in entries),
    )


def report_fingerprint(obj: dict) -> str:
    """Canonical JSON with timing fields removed, for determinism comparison."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in sorted(x.items()) if k != "seconds"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return json.dumps(strip(obj), sort_keys=True)


def render_text(report_obj: dict) -> str:
    """Aligned human-readable table for a report."""
    lines = [f"version {report_obj.get('version', '?')}"]
    sc = report_obj.get("scenario", {})
    if sc:
        lines.append(
            f"mode={sc.get('mode')} factors={len(sc.get('factors', []))} "
            f"degree={sc.get('degree')} trunc={sc.get('trunc')} seed={sc.get('seed')}"
        )
    header = ("check", "residual", "tol", "ok", "witness")
    rows = [
        (
            entry["name"],
            f"{entry['residual']:.3e}",
            f"{entry['tol']:.1e}",
            "pass" if entry["passed"] else "FAIL",
            json.dumps(entry.get("witness")) if entry.get("witness") else "-",
        )
        for entry in report_obj.get("checks", [])
    ]
    if rows:
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in (header, *rows)]
    lines.append(
        "overall: " + ("pass" if report_obj.get("overall_pass") else "FAIL")
    )
    return "\n".join(lines)
