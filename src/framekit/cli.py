"""Command-line frontend.

Every verb reads JSON, writes exactly one JSON report to stdout, and keeps
diagnostics on stderr.  Exit codes: 0 all checks passed, 1 an assertion-style
verification failed, 2 malformed or invalid input, or a stdout closed before
the report was written.  Only ``prop-run`` is seeded: ``--seed`` belongs to
it alone and defaults to the FRAMEKIT_SEED environment variable, which also
fills the ``seed`` key of every report.

The report on stdout and the ``gen --out`` file are the text of
``json.dump(obj, indent=2, sort_keys=True)``, byte for byte, written as a
stream of chunks by ``_json_chunks``, the one writer.  A list of finite
floats becomes one chunk formatted by ``float.__repr__`` at C speed.  ``gen``
hands it no float lists: every atom is a gather ``windows[row, index]`` from
the window table of ``wavepacket._gather_form``, so each vector part is a
``_Gathered`` leaf, and ``_FloatTexts`` formats each row of the table once,
on its first read, into fixed-width ASCII that every later atom gathers.

Importing this module loads only ``errors`` and ``numerics``; each verb
imports the rest of what it runs when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .errors import FramekitError
from .numerics import (
    DEFAULT_TOL, MAX_ATOM_ENTRIES, Tolerance, complex_from_json, complex_to_json, operator_from_json,
    operator_to_json,
)

if TYPE_CHECKING:
    from .signal_space import Grid
    from .wavepacket import WavePacketParams


def to_jsonable(obj):
    """Recursively convert reports, arrays, and numerics into JSON-safe values.

    JSON has no literal for infinities or NaN, so those are encoded as the
    strings "inf", "-inf", and "nan"; complex data splits into re/im parts.
    """
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, complex):
        return complex_to_json(np.complex128(obj))
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return operator_to_json(obj)
        return complex_to_json(obj.astype(np.complex128).reshape(-1))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _all_floats(items) -> bool:
    """Whether the list or tuple ``items`` is non-empty and every item is exactly a float."""
    return set(map(type, items)) == {float}


class _FloatTexts:
    """json.dump's text of every entry of a float64 table, each row formatted on its first read.

    A row is kept as fixed-width ASCII, as wide as its longest text (at most
    24 bytes, as for ``-2.2250738585072014e-308``), where a str object takes
    over 70 bytes an entry.
    """

    def __init__(self, table: np.ndarray):
        self._table = table
        self._rows: list[np.ndarray | None] = [None] * len(table)

    def row(self, i: int) -> np.ndarray:
        texts = self._rows[i]
        if texts is None:
            # json's own encoder: float.__repr__, and NaN and Infinity spelled as json.dump does.
            items = json.dumps(self._table[i].tolist())[1:-1].split(", ")
            texts = self._rows[i] = np.array(items, dtype=bytes)
        return texts


@dataclasses.dataclass(frozen=True)
class _Gathered:
    """A non-empty float list given by reference: entries ``index`` of row ``row`` of ``texts``."""

    texts: _FloatTexts
    row: int
    index: np.ndarray


def _json_chunks(obj, pad: str = "\n"):
    """Yield the text of ``json.dumps(obj, indent=2, sort_keys=True)`` in chunks.

    ``pad`` is the newline and indent of the enclosing level.  Dict keys must
    be strings.  A non-empty list of exact floats, all finite, or of exact
    ints is one chunk, and so is a ``_Gathered`` leaf, written as the float
    list it names; every other scalar is ``json.dumps`` of itself, so NaN,
    infinities, ints, bools, None and strings keep json's form.
    """
    if isinstance(obj, dict) and obj:
        inner = pad + "  "
        opener = "{" + inner
        for key in sorted(obj):
            yield opener + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(obj[key], inner)
            opener = "," + inner
        yield pad + "}"
    elif isinstance(obj, _Gathered):
        inner = pad + "  "
        texts = obj.texts.row(obj.row)[obj.index].tolist()
        yield "[" + inner + ("," + inner).encode().join(texts).decode() + pad + "]"
    elif isinstance(obj, (list, tuple)) and obj:
        inner = pad + "  "
        kinds = set(map(type, obj))
        if kinds == {float} or kinds == {int}:
            text = ("," + inner).join(map(kinds.pop().__repr__, obj))
            if "n" not in text:  # finite reprs have no "n"; "inf" and "nan" do
                yield "[" + inner + text + pad + "]"
                return
        opener = "[" + inner
        for item in obj:
            yield opener
            yield from _json_chunks(item, inner)
            opener = "," + inner
        yield pad + "]"
    else:
        yield json.dumps(obj)


def _digest_skeleton(obj):
    """JSON input with every non-empty all-float list replaced by a tag.

    The tag ``{"\\0f8": sha256 of the list as little-endian float64}`` names
    the floats as exactly as their shortest decimal form, without printing
    them.  Keys starting with NUL get one more, so no input spells the tag.
    """
    if isinstance(obj, dict):
        return {
            "\0" + k if k.startswith("\0") else k: _digest_skeleton(v) for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        if _all_floats(obj):
            return {"\0f8": hashlib.sha256(np.array(obj, dtype="<f8").tobytes()).hexdigest()}
        return [_digest_skeleton(v) for v in obj]
    return obj


def _digest(inputs) -> str:
    """sha256 of the inputs' canonical JSON; formatting and key order do not count."""
    canonical = json.dumps(_digest_skeleton(inputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _grid(doc) -> Grid:
    from .signal_space import Grid

    grid = _object(doc["grid"], "grid")
    return Grid(grid["q"], grid["P"])


def _operator_from_any(doc):
    """A raw matrix document as a matrix, or a named grid operator description as its
    ``numerics.Monomial``, which every verb takes as it is or densifies where it must."""
    if isinstance(doc, dict) and "kind" in doc:
        try:
            grid, value = _grid(doc), doc["value"]
        except KeyError as exc:
            raise ValueError(f"named operator JSON missing field: {exc}") from None
        limit = MAX_ATOM_ENTRIES // 8  # a check holds a few n-vectors of the form at once
        if grid.n > limit:
            raise ValueError(f"named operator grid n {grid.n} exceeds MAX_ATOM_ENTRIES / 8 = {limit}")
        from .signal_space import _index_phase

        return _index_phase(grid, doc["kind"], value)
    return operator_from_json(doc)


def _params_from_json(doc) -> WavePacketParams:
    from .signal_space import signal_from_json
    from .wavepacket import WavePacketParams

    doc = _object(doc, "wave-packet params")
    try:
        grid, psi, b, k_range = _grid(doc), doc["psi"], doc["b"], doc["k_range"]
    except KeyError as exc:
        raise ValueError(f"wave-packet params JSON missing field: {exc}") from None
    return WavePacketParams(
        grid=grid,
        psi=signal_from_json(psi),
        a_list=doc.get("a_list", [1]),
        b=b,
        k_range=k_range,
        c_list=doc.get("c_list", [0.0]),
        dedupe=doc.get("dedupe", True),
    )


def _tolerance(args) -> Tolerance:
    return Tolerance(
        psd_floor=args.tol_psd, rank_rel=args.tol_rank, verdict_rel=args.tol_verdict
    )


# ---------------------------------------------------------------------------
# Verb handlers: each returns (verdicts, inputs_for_digest, exit_code), and
# imports what it runs when it runs, so a verb loads only its own modules.


def _system_payload(params: WavePacketParams) -> dict:
    """``system_to_json(generate_system(params))`` with each vector part a ``_Gathered`` leaf.

    The atoms are gathered from the one window table, deduplicated and
    labelled by ``wavepacket._system``; each kept atom's real and imaginary
    parts name its row of the table's real and imaginary parts.
    """
    from .wavepacket import _gather_form, _system

    windows, rows, index = _gather_form(params)
    system, counts = _system(params, windows[rows[:, None], index])
    kept = counts > 0
    texts, offset = _FloatTexts(np.concatenate((windows.real, windows.imag))), len(windows)
    return {
        "n": system.n,
        "vectors": [
            {"re": _Gathered(texts, row, at), "im": _Gathered(texts, offset + row, at)}
            for row, at in zip(rows[kept].tolist(), index[kept])
        ],
        "labels": [list(lab) for lab in system.labels],
    }


def _cmd_gen(args, tol):
    doc = _load_json(args.params)
    params = _params_from_json(doc)
    if params.b == 0.0 and params.dedupe:
        print(
            "warning: translation step 0 collapses the multiplier range to k = 0",
            file=sys.stderr,
        )
    if not np.any(params.psi.values):
        print("warning: degenerate window (zero signal)", file=sys.stderr)
    payload = _system_payload(params)
    verdicts = {"vectors": len(payload["vectors"]), "dimension": payload["n"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(_json_chunks(payload))
        verdicts["written"] = args.out
    else:
        verdicts["system"] = payload
    return verdicts, {"params": doc}, 0


def _cmd_check_frame(args, tol):
    from .frame_core import _is_frame, optimal_bounds, system_from_json

    doc = _load_json(args.system)
    system = system_from_json(doc)
    bounds = optimal_bounds(system, tol)
    verdicts = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "tight": bounds.tight,
        "is_frame": _is_frame(bounds.lower, bounds.upper, tol),
    }
    return verdicts, {"system": doc}, 0


def _system_and_operator(system_path: str, operator_path: str):
    """``(system doc, system, operator doc, operator)`` read from the two files, in that order."""
    from .frame_core import system_from_json

    sys_doc, op_doc = _load_json(system_path), _load_json(operator_path)
    return sys_doc, system_from_json(sys_doc), op_doc, _operator_from_any(op_doc)


def _cmd_check_theta(args, tol):
    from .theta_frame import check_theta_frame

    sys_doc, system, theta_doc, theta = _system_and_operator(args.system, args.theta)
    rep = check_theta_frame(system, theta, tol, margin=args.margin)
    verdicts = {
        "alpha_opt": to_jsonable(rep.alpha_opt),
        "beta_opt": to_jsonable(rep.beta_opt),
        "lower_ok": rep.lower_ok,
        "upper_ok": rep.upper_ok,
        "lower_degenerate": rep.lower_degenerate,
        "witnesses": {
            "lower": to_jsonable(rep.lower_witness),
            "upper": to_jsonable(rep.upper_witness),
            "kernel": to_jsonable(rep.kernel_obstruction),
        },
    }
    return verdicts, {"system": sys_doc, "theta": theta_doc, "margin": args.margin}, 0


def _cmd_check_k(args, tol):
    from .theta_frame import check_k_frame

    sys_doc, system, k_doc, k = _system_and_operator(args.system, args.k)
    rep = check_k_frame(system, k, tol, margin=args.margin)
    return to_jsonable(rep), {"system": sys_doc, "k": k_doc, "margin": args.margin}, 0


def _cmd_check_hypo(args, tol):
    from .operator_theory import hyponormality

    doc = _load_json(args.operator)
    op = _operator_from_any(doc)
    rep = hyponormality(op, tol, margin=args.margin)
    return to_jsonable(rep), {"operator": doc, "margin": args.margin}, 0


def _cmd_douglas(args, tol):
    from .operator_theory import douglas_check

    doc1 = _load_json(args.t1)
    doc2 = _load_json(args.t2)
    rep = douglas_check(_operator_from_any(doc1), _operator_from_any(doc2), tol)
    return to_jsonable(rep), {"t1": doc1, "t2": doc2}, 0


def _cmd_pinv(args, tol):
    from .theta_frame import pseudoinverse_bound_chain

    sys_doc, system, theta_doc, theta = _system_and_operator(args.system, args.theta)
    rep = pseudoinverse_bound_chain(system, theta, tol)
    code = 0 if rep.chain_ok else 1
    if code:
        print("bound chain failed; see report for margins", file=sys.stderr)
    return to_jsonable(rep), {"system": sys_doc, "theta": theta_doc}, code


def _cmd_check_comb(args, tol):
    from .signal_space import signal_from_json
    from .wavepacket import (
        FiniteSumSpec,
        PartitionCombination,
        finite_sum_criterion_check,
        generate_system,
        partition_domination_check,
    )

    doc = _object(_load_json(args.spec), "combination spec")
    kind = doc.get("kind", "partition")
    if kind not in ("partition", "finite-sum"):
        raise ValueError(f"unknown combination kind {kind!r}")
    for key in ("params", "theta", "cells" if kind == "partition" else "alphas"):
        if key not in doc:
            raise ValueError(f"combination spec JSON missing field: {key!r}")
    params = _params_from_json(doc["params"])
    theta = _operator_from_any(doc["theta"])
    if kind == "partition":
        base = generate_system(params)
        coeffs = np.ones(len(base), dtype=np.complex128)
        if "coefficients" in doc:
            coeffs = complex_from_json(doc["coefficients"], None, "coefficients re/im lists")
        pc = PartitionCombination(cells=doc["cells"], coefficients=coeffs)
        rep = partition_domination_check(base, pc, theta, tol)
    else:
        alphas = tuple(complex_from_json(doc["alphas"], None, "alphas re/im lists"))
        if "psis" in doc:
            if not isinstance(doc["psis"], list):
                raise ValueError(f"psis must be a list of window signals, got {type(doc['psis']).__name__}")
            psis = tuple(signal_from_json(d) for d in doc["psis"])
        else:
            psis = tuple(params.psi for _ in alphas)
        spec = FiniteSumSpec(alphas=alphas, psis=psis)
        rep = finite_sum_criterion_check(spec, params, theta, tol)
    code = 0 if rep.agrees else 1
    if code:
        print("combination criterion disagreed with the frame verdict", file=sys.stderr)
    return to_jsonable(rep), {"spec": doc}, code


def _cmd_verify_example(args, tol):
    from .registry import run_case

    outcome = run_case(args.case)
    code = 0 if outcome.passed else 1
    if code:
        failure = outcome.first_failure()
        if failure is not None:
            print(
                f"assertion failed: {failure.label} (observed {failure.observed}; "
                f"expected {failure.expected})",
                file=sys.stderr,
            )
    return to_jsonable(outcome), {"case": args.case}, code


def _cmd_prop_run(args, tol):
    from .suites import run_suite

    result = run_suite(args.suite, args.trials, args.seed, tol)
    code = 0 if result.passed else 1
    for failure in result.failures:
        print(
            f"trial {failure.index} failed (seed {failure.seed}): {failure.message}",
            file=sys.stderr,
        )
    verdicts = to_jsonable(result)
    return verdicts, {"suite": args.suite, "trials": args.trials}, code


_TOLERANCE_FLAGS = (
    ("--tol-psd", dict(type=float, default=DEFAULT_TOL.psd_floor, help="positivity floor")),
    ("--tol-rank", dict(type=float, default=DEFAULT_TOL.rank_rel, help="relative rank cutoff")),
    ("--tol-verdict", dict(type=float, default=DEFAULT_TOL.verdict_rel, help="relative verdict slack")),
)
_MARGIN = ("--margin", dict(type=int, metavar="M", help="drop the last M coordinates"))

# Every verb: its help line, its handler, and its arguments after the tolerance flags.
_VERBS = {
    "gen": ("generate a wave-packet system", _cmd_gen, (
        ("params", dict(help="WavePacketParams JSON file")),
        ("--out", dict(default=None, help="write the system here")),
    )),
    "check-frame": ("classical optimal bounds", _cmd_check_frame, (
        ("system", dict(help="FrameSystem JSON file")),
    )),
    "check-theta": ("two-sided window bounds", _cmd_check_theta, (
        ("system", {}), ("theta", dict(help="window operator JSON file")), _MARGIN,
    )),
    "check-k": ("windowed lower bound only", _cmd_check_k, (
        ("system", {}), ("k", dict(help="lower-window operator JSON file")), _MARGIN,
    )),
    "check-hypo": ("self-commutator positivity", _cmd_check_hypo, (("operator", {}), _MARGIN)),
    "douglas": ("range inclusion three ways", _cmd_douglas, (("t1", {}), ("t2", {}))),
    "pinv": ("pseudoinverse bound chain", _cmd_pinv, (("system", {}), ("theta", {}))),
    "check-comb": ("combined-system criteria", _cmd_check_comb, (
        ("spec", dict(help="partition or finite-sum spec JSON file")),
    )),
    "verify-example": ("run a pinned case model", _cmd_verify_example, (
        ("case", dict(help="case name or short code")),
    )),
    "prop-run": ("randomized invariant suite", _cmd_prop_run, (
        ("suite", {}),
        ("--trials", dict(type=int, default=100)),
        ("--seed", dict(type=int, help="seed for randomized work (default: FRAMEKIT_SEED or 0)")),
    )),
}


def _build_parser(default_seed: int, verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of ``verb`` alone: a call builds only what it runs.

    Every namespace carries ``seed``, the default of ``prop-run --seed``.  A
    one-verb parser spells every verb in its usage line, so its errors print
    the usage of the full parser; the full parser names its verb argument
    ``command`` in its own errors, as a spelled-out metavar would not.
    """
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Window-controlled frame inequalities on cyclic sample grids",
    )
    spelled = None if verb is None else "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=spelled)
    for name in _VERBS if verb is None else (verb,):
        help_line, handler, arguments = _VERBS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, options in _TOLERANCE_FLAGS + arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, seed=default_seed)
    return parser


def main(argv=None) -> int:
    try:
        default_seed = int(os.environ.get("FRAMEKIT_SEED", "0"))
    except ValueError:
        print("FRAMEKIT_SEED must be an integer", file=sys.stderr)
        return 2
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(default_seed, argv[0] if argv and argv[0] in _VERBS else None).parse_args(argv)
    started = time.perf_counter()
    try:
        tol = _tolerance(args)
        verdicts, inputs, code = args.handler(args, tol)
        digest = _digest(inputs)
    except (FramekitError, ValueError, KeyError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        verdicts, digest, code = {"error": str(exc)}, "", 2
    report = {
        "command": args.command,
        "inputs_digest": digest,
        "verdicts": verdicts,
        "seed": args.seed,
        "duration_ms": int((time.perf_counter() - started) * 1000),
    }
    try:
        sys.stdout.writelines(_json_chunks(report))
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        print("error: stdout was closed before the report was written", file=sys.stderr)
        _stdout_to_devnull()
        return 2
    return code


def _stdout_to_devnull() -> None:
    """Point a closed stdout's descriptor at the null device.

    The interpreter flushes stdout once more at exit; writing to the null
    device lets that flush succeed quietly.  A stdout with no descriptor
    (an in-memory stream) is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


__all__ = ["main", "to_jsonable"]
