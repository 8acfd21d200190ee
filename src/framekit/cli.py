"""Command-line frontend.

Every verb reads JSON, writes exactly one JSON report to stdout, and keeps
diagnostics on stderr.  Exit codes: 0 all checks passed, 1 an assertion-style
verification failed, 2 malformed or invalid input, or a stdout closed before
the report was written.  Only ``prop-run`` is seeded: ``--seed`` belongs to
it alone and defaults to the FRAMEKIT_SEED environment variable, which also
fills the ``seed`` key of every report.

The report on stdout and the ``gen --out`` file are the text of
``json.dump(obj, indent=2, sort_keys=True)``, byte for byte, written as a
stream of chunks by ``_json_chunks``; a list of finite floats becomes one
chunk formatted by ``float.__repr__`` at C speed.

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
    DEFAULT_TOL, Tolerance, complex_from_json, complex_to_json, operator_from_json, operator_to_json
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


def _json_chunks(obj, pad: str = "\n"):
    """Yield the text of ``json.dumps(obj, indent=2, sort_keys=True)`` in chunks.

    ``pad`` is the newline and indent of the enclosing level.  Dict keys must
    be strings.  A non-empty list of exact floats, all finite, is one chunk;
    every other scalar is ``json.dumps`` of itself, so NaN, infinities, ints,
    bools, None and strings keep json's form.
    """
    if isinstance(obj, dict) and obj:
        inner = pad + "  "
        opener = "{" + inner
        for key in sorted(obj):
            yield opener + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(obj[key], inner)
            opener = "," + inner
        yield pad + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        inner = pad + "  "
        if _all_floats(obj):
            text = ("," + inner).join(map(float.__repr__, obj))
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


def _operator_from_any(doc) -> np.ndarray:
    """Accept a raw matrix document or a named grid operator description."""
    if isinstance(doc, dict) and "kind" in doc:
        try:
            grid, value = _grid(doc), doc["value"]
        except KeyError as exc:
            raise ValueError(f"named operator JSON missing field: {exc}") from None
        from .signal_space import operator_of

        return operator_of(grid, doc["kind"], value)
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


def _cmd_gen(args, tol):
    from .frame_core import system_to_json
    from .wavepacket import generate_system

    doc = _load_json(args.params)
    params = _params_from_json(doc)
    if params.b == 0.0 and params.dedupe:
        print(
            "warning: translation step 0 collapses the multiplier range to k = 0",
            file=sys.stderr,
        )
    if not np.any(params.psi.values):
        print("warning: degenerate window (zero signal)", file=sys.stderr)
    system = generate_system(params)
    payload = system_to_json(system)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(_json_chunks(payload))
        verdicts = {"written": args.out, "vectors": len(system), "dimension": system.n}
    else:
        verdicts = {"vectors": len(system), "dimension": system.n, "system": payload}
    return verdicts, {"params": doc}, 0


def _cmd_check_frame(args, tol):
    from .frame_core import optimal_bounds, system_from_json

    doc = _load_json(args.system)
    system = system_from_json(doc)
    bounds = optimal_bounds(system, tol)
    is_frame = bounds.lower > tol.psd_floor * max(1.0, bounds.upper)
    verdicts = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "tight": bounds.tight,
        "is_frame": bool(is_frame),
    }
    return verdicts, {"system": doc}, 0


def _cmd_check_theta(args, tol):
    from .frame_core import system_from_json
    from .theta_frame import check_theta_frame

    sys_doc = _load_json(args.system)
    theta_doc = _load_json(args.theta)
    system = system_from_json(sys_doc)
    theta = _operator_from_any(theta_doc)
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
    from .frame_core import system_from_json
    from .theta_frame import check_k_frame

    sys_doc = _load_json(args.system)
    k_doc = _load_json(args.k)
    system = system_from_json(sys_doc)
    k = _operator_from_any(k_doc)
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
    from .frame_core import system_from_json
    from .theta_frame import pseudoinverse_bound_chain

    sys_doc = _load_json(args.system)
    theta_doc = _load_json(args.theta)
    system = system_from_json(sys_doc)
    theta = _operator_from_any(theta_doc)
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
        if "coefficients" in doc:
            coeffs = complex_from_json(doc["coefficients"], None, "coefficients re/im lists")
        else:
            coeffs = np.ones(len(base), dtype=np.complex128)
        pc = PartitionCombination(cells=doc["cells"], coefficients=coeffs)
        rep = partition_domination_check(base, pc, theta, tol)
    else:
        alphas = tuple(complex_from_json(doc["alphas"], None, "alphas re/im lists"))
        if "psis" in doc:
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


def _build_parser(default_seed: int) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol-psd", type=float, default=DEFAULT_TOL.psd_floor, help="positivity floor"
    )
    common.add_argument(
        "--tol-rank", type=float, default=DEFAULT_TOL.rank_rel, help="relative rank cutoff"
    )
    common.add_argument(
        "--tol-verdict", type=float, default=DEFAULT_TOL.verdict_rel, help="relative verdict slack"
    )

    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Window-controlled frame inequalities on cyclic sample grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a wave-packet system")
    p.add_argument("params", help="WavePacketParams JSON file")
    p.add_argument("--out", default=None, help="write the system here")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("check-frame", parents=[common], help="classical optimal bounds")
    p.add_argument("system", help="FrameSystem JSON file")
    p.set_defaults(handler=_cmd_check_frame)

    p = sub.add_parser("check-theta", parents=[common], help="two-sided window bounds")
    p.add_argument("system")
    p.add_argument("theta", help="window operator JSON file")
    p.add_argument("--margin", type=int, metavar="M", help="drop the last M coordinates")
    p.set_defaults(handler=_cmd_check_theta)

    p = sub.add_parser("check-k", parents=[common], help="windowed lower bound only")
    p.add_argument("system")
    p.add_argument("k", help="lower-window operator JSON file")
    p.add_argument("--margin", type=int, metavar="M", help="drop the last M coordinates")
    p.set_defaults(handler=_cmd_check_k)

    p = sub.add_parser("check-hypo", parents=[common], help="self-commutator positivity")
    p.add_argument("operator")
    p.add_argument("--margin", type=int, metavar="M", help="drop the last M coordinates")
    p.set_defaults(handler=_cmd_check_hypo)

    p = sub.add_parser("douglas", parents=[common], help="range inclusion three ways")
    p.add_argument("t1")
    p.add_argument("t2")
    p.set_defaults(handler=_cmd_douglas)

    p = sub.add_parser("pinv", parents=[common], help="pseudoinverse bound chain")
    p.add_argument("system")
    p.add_argument("theta")
    p.set_defaults(handler=_cmd_pinv)

    p = sub.add_parser("check-comb", parents=[common], help="combined-system criteria")
    p.add_argument("spec", help="partition or finite-sum spec JSON file")
    p.set_defaults(handler=_cmd_check_comb)

    p = sub.add_parser("verify-example", parents=[common], help="run a pinned case model")
    p.add_argument("case", help="case name or short code")
    p.set_defaults(handler=_cmd_verify_example)

    p = sub.add_parser("prop-run", parents=[common], help="randomized invariant suite")
    p.add_argument("suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--seed",
        type=int,
        default=default_seed,
        help="seed for randomized work (default: FRAMEKIT_SEED or 0)",
    )
    p.set_defaults(handler=_cmd_prop_run)

    return parser


def main(argv=None) -> int:
    try:
        default_seed = int(os.environ.get("FRAMEKIT_SEED", "0"))
    except ValueError:
        print("FRAMEKIT_SEED must be an integer", file=sys.stderr)
        return 2
    parser = _build_parser(default_seed)
    args = parser.parse_args(argv)
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
        "seed": getattr(args, "seed", default_seed),
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
