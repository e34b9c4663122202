"""Command-line front end.

Subcommands::

    tikm werner    --fs -0.5 | --ps 0.75          closed-form report for one state
    tikm diagram   --fs-min --fs-max --steps      measures along a correlation grid
    tikm rkky      --dim 3 --j ... --r-min ...    coupling and Kondo scales vs distance
    tikm simulate  --sites 4 --jk 0.5 ...         exact diagonalization of one chain
    tikm critical  --param jk --min --max --tol   find the f_s = -1/4 crossing

Formats: ``pretty`` (6 significant digits, human), ``csv`` and ``json``
(17 significant digits, bit-identical across reruns on one BLAS build and
thread count; the thread count can move the last digits of ``simulate``,
not of ``critical``, whose search runs numpy's BLAS at one thread and starts
each solve from a vector that no thread or CPU count changes).
Exit codes: 0 success, 2 usage or domain error, 3 I/O error, 4 eigensolver
not converged, non-finite arithmetic in the solve, or a coupling line's
energies that break the Hellmann-Feynman bracket, 5 degenerate ground
state (a gap below the solver's threshold, or for ``simulate`` and at any
point ``critical`` solves a ground vector that mixes spin multiplets, seen
from its S^2), 6 no bracket, 7 non-monotone scan or a jump of f_s over the
target.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

import numpy as np

from . import kondo_sim, measures, rkky, werner
from .errors import (
    DegenerateGroundError,
    DomainError,
    EmptySectorError,
    NoBracketError,
    NonMonotoneError,
    NotConvergedError,
    OutOfRangeError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4
EXIT_DEGENERATE = 5
EXIT_NO_BRACKET = 6
EXIT_NON_MONOTONE = 7

#: The exit code of each error class ``main`` reports, matched in this order;
#: any other exception propagates.
_EXIT_CODES: dict[type[Exception], int] = {
    OutOfRangeError: EXIT_USAGE,
    DomainError: EXIT_USAGE,
    EmptySectorError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    OSError: EXIT_IO,
    NotConvergedError: EXIT_NOT_CONVERGED,
    DegenerateGroundError: EXIT_DEGENERATE,
    NoBracketError: EXIT_NO_BRACKET,
    NonMonotoneError: EXIT_NON_MONOTONE,
}

#: A token that starts like a negative number is a value, not an option.
#: argparse before Python 3.13 takes only plain decimals such as -0.5 for
#: negative numbers, so it read the repr of a small float, such as -7e-05,
#: as an unknown option and exited 2.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

_MACHINE_DIGITS = ".17g"
_PRETTY_DIGITS = ".6g"


def _fmt(value: object, spec: str = _MACHINE_DIGITS) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, spec)
    return str(value)


def _json_line(obj: object) -> str:
    """Serialize with floats at 17 significant digits (round-trip exact)."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_line(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_line(v) for v in obj) + "]"
    if isinstance(obj, (bool, float, int)):
        return _fmt(obj)
    return json.dumps(obj)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _pretty_table(pairs: Sequence[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k:<{width}}  {_fmt(v, _PRETTY_DIGITS)}" for k, v in pairs) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _report_pairs(f_s: float, state: werner.WernerState) -> list[tuple[str, object]]:
    rep = werner.classify(state)
    return [
        ("fs", f_s),
        ("ps", state.p_s),
        ("pt", state.p_t),
        ("prob_singlet", rep.prob_singlet),
        ("prob_triplet", rep.prob_triplet),
        ("concurrence", rep.concurrence),
        ("negativity", rep.negativity),
        ("pair_entropy", rep.pair_entropy),
        ("single_entropy", rep.single_entropy),
        ("entangled", rep.entangled),
        ("teleport", rep.teleportation_useful),
        ("chsh", rep.chsh_violating),
    ]


def _emit_record(pairs: list[tuple[str, object]], fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write_out(_json_line(dict(pairs)) + "\n", out)
    elif fmt == "csv":
        _write_out(_csv_text([k for k, _ in pairs], [[v for _, v in pairs]]), out)
    else:
        _write_out(_pretty_table(pairs), out)


def _emit_table(columns: Sequence[str], rows: list[list[object]], fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write_out(_json_line([dict(zip(columns, row)) for row in rows]) + "\n", out)
    else:
        _write_out(_csv_text(columns, rows), out)


def cmd_werner(args: argparse.Namespace) -> int:
    state = werner.from_fidelity(args.ps) if args.ps is not None else werner.from_correlation(args.fs)
    _emit_record(_report_pairs(state.f_s, state), args.format, args.out)
    return EXIT_OK


_DIAGRAM_COLUMNS = (
    "fs",
    "ps",
    "pt",
    "concurrence",
    "negativity",
    "pair_entropy",
    "single_entropy",
    "entangled",
    "teleport",
    "chsh",
)


def cmd_diagram(args: argparse.Namespace) -> int:
    if not (werner.F_MIN <= args.fs_min < args.fs_max <= werner.F_MAX):
        raise OutOfRangeError(
            f"need {werner.F_MIN} <= fs-min < fs-max <= {werner.F_MAX}, got [{args.fs_min}, {args.fs_max}]"
        )
    if args.steps < 2:
        raise OutOfRangeError(f"steps must be >= 2, got {args.steps}")
    rows = []
    for f_s in np.linspace(args.fs_min, args.fs_max, args.steps).tolist():
        report = dict(_report_pairs(f_s, werner.from_correlation(f_s)))
        rows.append([report[column] for column in _DIAGRAM_COLUMNS])
    _emit_table(_DIAGRAM_COLUMNS, rows, args.format, args.out)
    return EXIT_OK


_RKKY_COLUMNS = ("r", "x", "f", "coupling", "sign_class", "tk", "i_over_tk")


def cmd_rkky(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise DomainError(f"steps must be >= 2, got {args.steps}")
    if not 0.0 < args.r_min < args.r_max:
        raise DomainError(f"need 0 < r-min < r-max, got [{args.r_min}, {args.r_max}]")
    rows = []
    for r in np.linspace(args.r_min, args.r_max, args.steps):
        params = rkky.RkkyParams(
            j=args.j,
            fermi_energy=args.ef,
            fermi_wavevector=args.kf,
            dos_fermi=args.rhof,
            bandwidth=args.bandwidth,
            dimension=args.dim,
            distance=float(r),
        )
        res = rkky.coupling(params)
        rows.append([float(r), res.x, res.f, res.coupling, res.sign_class, res.kondo_temperature, res.ratio])
    _emit_table(_RKKY_COLUMNS, rows, args.format, args.out)
    return EXIT_OK


#: The model flags, each with the type that parses its value and its help
#: text.  ``--config`` files take the same keys and types, and ``simulate``
#: echoes the model in this order.
_MODEL_FLAGS: dict[str, tuple[type, str]] = {
    "sites": (int, "chain length L (<= 10)"),
    "hopping": (float, "nearest-neighbor hopping t (default 1)"),
    "jk": (float, "AFM Kondo coupling (>= 0, default 0)"),
    "idirect": (float, "direct impurity exchange (default 0)"),
    "xa": (int, "site of impurity A (default: centered pair)"),
    "xb": (int, "site of impurity B"),
    "nup": (int, "up electrons (default: half filling)"),
    "ndn": (int, "down electrons (default: half filling)"),
}


def _read_model_file(path: str) -> dict:
    """Read ``key = value`` model flags (one per line, '#' comments) from a file."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = (s.strip() for s in line.partition("="))
            if key not in _MODEL_FLAGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _MODEL_FLAGS[key][0]
            try:
                out[key] = kind(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: invalid {kind.__name__} value for {key}: {value!r}") from None
    return out


def _model_from_args(args: argparse.Namespace) -> kondo_sim.ChainModel:
    """Build the model with flag > config-file > built-in default precedence."""
    values: dict = {}
    if args.config is not None:
        values.update(_read_model_file(args.config))
    for key in _MODEL_FLAGS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if "sites" not in values:
        raise OutOfRangeError("missing required model parameter: sites (flag --sites or config file)")
    return kondo_sim.ChainModel(**values)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    for name, (kind, help_text) in _MODEL_FLAGS.items():
        parser.add_argument(f"--{name}", type=kind, default=None, help=help_text)
    parser.add_argument("--config", default=None, help="key = value model file; flags override it")


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    a = model.analyze()
    g = a.ground
    singlet = a.singlet()
    pairs: list[tuple[str, object]] = [(name, getattr(model, name)) for name in _MODEL_FLAGS]
    pairs += [
        ("sector_dim", a.dim),
        ("method", g.method),
        ("iterations", g.iterations),
        ("residual_norm", g.residual_norm),
        ("energy", g.energy),
        ("singlet", singlet),
        ("degenerate", not singlet),
        ("werner_residual", measures.werner_residual(a.rho)),
    ]
    pairs += _report_pairs(a.f_s, werner.from_correlation(a.f_s))
    _emit_record(pairs, args.format, args.out)
    if args.out is not None:
        sys.stdout.write(
            f"sites={model.sites} jk={_fmt(model.jk, _PRETTY_DIGITS)} "
            f"idirect={_fmt(model.idirect, _PRETTY_DIGITS)} dim={a.dim}: "
            f"E0={_fmt(g.energy, _PRETTY_DIGITS)} fs={_fmt(a.f_s, _PRETTY_DIGITS)} "
            f"singlet={_fmt(singlet)}\n"
        )
    return EXIT_OK


def cmd_critical(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    line = kondo_sim.CouplingLine(model, args.param)
    value = kondo_sim.find_crossing(line, args.min, args.max, target_fs=args.target_fs, tol=args.tol)
    f_s = line.correlation(value)  # the search solved value, so this solves nothing
    pairs: list[tuple[str, object]] = [
        ("param", args.param),
        ("value", value),
        ("fs", f_s),
        ("target_fs", args.target_fs),
        ("tol", args.tol),
    ]
    _emit_record(pairs, args.format, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tikm",
        description="Entanglement measures for two exchange-coupled Kondo impurities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, default_format: str, formats=("csv", "json", "pretty")) -> None:
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("werner", help="closed-form report for one correlation/fidelity value")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fs", type=float, default=None, help="spin-spin correlation in [-3/4, 1/4]")
    group.add_argument("--ps", type=float, default=None, help="singlet fidelity in [0, 1]")
    add_common(p, "pretty")
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("diagram", help="measures and probabilities along a correlation grid")
    p.add_argument("--fs-min", type=float, default=werner.F_MIN)
    p.add_argument("--fs-max", type=float, default=werner.F_MAX)
    p.add_argument("--steps", type=int, default=101)
    add_common(p, "csv", formats=("csv", "json"))
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("rkky", help="indirect exchange and Kondo temperature versus distance")
    p.add_argument("--dim", type=int, choices=(1, 3), required=True)
    p.add_argument("--j", type=float, required=True, help="AFM exchange magnitude")
    p.add_argument("--ef", type=float, required=True, help="Fermi energy")
    p.add_argument("--kf", type=float, required=True, help="Fermi wavevector")
    p.add_argument("--rhof", type=float, required=True, help="density of states at the Fermi level")
    p.add_argument("--bandwidth", type=float, required=True)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    add_common(p, "csv", formats=("csv", "json"))
    p.set_defaults(func=cmd_rkky)

    p = sub.add_parser("simulate", help="exact diagonalization of one chain model")
    _add_model_flags(p)
    add_common(p, "pretty")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("critical", help="find the parameter where f_s crosses -1/4")
    p.add_argument("--param", choices=("jk", "idirect"), required=True)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--target-fs", type=float, default=werner.CRITICAL_CORRELATION)
    _add_model_flags(p)
    add_common(p, "pretty")
    p.set_defaults(func=cmd_critical)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(f"tikm: {exc}\n")
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
