"""The three workloads: seeded inputs, the requests that run them, and their checks.

A workload hands out rounds.  A round is a fixed list of requests whose
parameters are drawn from the run's seeded generator, so every run attempts
whole rounds of the same operations.  Requests call tikm only through its
public API (``kondo_sim.sweep`` and ``cli.main``), looked up at call time so
that the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference

#: qip-map-L4: the idirect grid of one row, ferromagnetic to strongly antiferromagnetic.
QIP_GRID = tuple(float(x) for x in np.linspace(-2.0, 6.0, 24))
QIP_SITES = 4
#: Rows of the first rounds whose one seeded point is checked against the full-Fock-space oracle.
QIP_ORACLE_ROUNDS = 2

CRITICAL_SITES = 8
CRITICAL_TOL = 1e-4
#: Fixed bracket width: every request bisects the same number of times (9 + 14 + 1 points).
CRITICAL_WIDTH = 1.0
#: (param, the other coupling held fixed, approximate crossing).  Brackets are placed so that
#: the crossing sits 30-55 % of the way in; at jk = 3 f_s jumps near idirect = -0.25, below
#: every idirect bracket.
CRITICAL_SCANS = (("jk", ("--idirect", 0.0), 2.449), ("idirect", ("--jk", 3.0), 0.444))

SIMULATE_SITES = 10
SIMULATE_SEPARATIONS = (1, 3, 5)
SIMULATE_CONTROL = ("simulate", "--sites", str(SIMULATE_SITES), "--jk", "0", "--format", "json")


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def call_cli(cli, argv) -> CliResult:
    """Run ``tikm`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Request:
    """One operation: ``run`` calls the program, ``ok`` says whether it completed,
    ``check`` lists what is wrong with a completed output, ``same`` compares two outputs."""

    label: str
    run: Callable[[], object]
    ok: Callable[[object], bool]
    check: Callable[[object], list[str]]
    timed: bool = True

    def same(self, a, b) -> bool:
        if isinstance(a, CliResult):
            return (a.code, a.out) == (b.code, b.out)
        return [(p.energy, p.f_s, p.singlet, p.error) for p in a] == [(p.energy, p.f_s, p.singlet, p.error) for p in b]


def _cli_ok(code: int) -> Callable[[CliResult], bool]:
    return lambda result: result.code == code


def _record(result: CliResult) -> dict:
    return json.loads(result.out)


class QipMap:
    """Entanglement map rows on a half-filled 4-site chain (dense solves, default sweep pool)."""

    name = "qip-map-L4"
    trace_rounds = 10

    def __init__(self, tikm, oracles) -> None:
        self.tikm = tikm
        self.oracles = oracles

    def round(self, rng: np.random.Generator, index: int) -> list[Request]:
        requests = []
        for separation in (1, 3):
            jk = float(rng.uniform(0.5, 3.0))
            sample = int(rng.integers(len(QIP_GRID)))
            xa, xb = reference.centered_pair(QIP_SITES, separation)
            requests.append(
                Request(
                    label=f"sweep idirect sep={separation} jk={jk!r}",
                    run=self._row(jk, xa, xb),
                    ok=lambda points: all(p.error is None for p in points),
                    check=self._check(jk, xa, xb, sample if index < QIP_ORACLE_ROUNDS else None),
                )
            )
        return requests

    def _row(self, jk, xa, xb):
        def run():
            kondo_sim = self.tikm.kondo_sim
            model = kondo_sim.ChainModel(sites=QIP_SITES, jk=jk, xa=xa, xb=xb)
            return kondo_sim.sweep(model, "idirect", QIP_GRID)

        return run

    def _check(self, jk, xa, xb, sample):
        def check(points):
            problems = checks.sweep_row(QIP_GRID, points)
            if sample is not None and not problems:
                idirect = QIP_GRID[sample]
                energy, f_s, _ = self.oracles.full_space_ground(QIP_SITES, 1.0, jk, idirect, xa, xb, QIP_SITES)
                problems += checks.oracle_point(points[sample], (energy, f_s))
            return problems

        return check


class CriticalL8:
    """``tikm critical --sites 8`` bisections in jk (idirect = 0) and in idirect (jk = 3)."""

    name = "critical-L8"
    trace_rounds = 1

    def __init__(self, tikm, oracles) -> None:
        self.tikm = tikm

    def round(self, rng: np.random.Generator, index: int) -> list[Request]:
        requests = []
        for param, (fixed_flag, fixed), crossing in CRITICAL_SCANS:
            lo = crossing - CRITICAL_WIDTH * float(rng.uniform(0.3, 0.55))
            hi = lo + CRITICAL_WIDTH
            argv = [
                "critical", "--sites", str(CRITICAL_SITES), "--param", param, fixed_flag, repr(fixed),
                "--min", repr(lo), "--max", repr(hi), "--tol", repr(CRITICAL_TOL), "--format", "json",
            ]  # fmt: skip
            couplings = {"jk": 0.0, "idirect": 0.0, fixed_flag[2:]: fixed}
            requests.append(
                Request(
                    label=" ".join(argv),
                    run=lambda argv=argv: call_cli(self.tikm.cli, argv),
                    ok=_cli_ok(0),
                    check=self._check(param, lo, hi, couplings),
                )
            )
        return requests

    @staticmethod
    def _check(param, lo, hi, couplings):
        xa, xb = reference.centered_pair(CRITICAL_SITES, 1)
        half = CRITICAL_SITES // 2

        def fs_at(value: float) -> float:
            c = dict(couplings, **{param: value})
            sector = reference.Sector(CRITICAL_SITES, 1.0, c["jk"], c["idirect"], xa, xb, half, half)
            return sector.spin_correlation(sector.ground()[1])

        return lambda result: checks.critical(_record(result), param, lo, hi, CRITICAL_TOL, fs_at)


class SimulateL10:
    """``tikm simulate --sites 10`` of distinct coupled models, plus the free-impurity control."""

    name = "simulate-L10"
    trace_rounds = 1

    def __init__(self, tikm, oracles) -> None:
        self.tikm = tikm

    def round(self, rng: np.random.Generator, index: int) -> list[Request]:
        separation = int(rng.choice(SIMULATE_SEPARATIONS))
        jk = float(rng.uniform(0.8, 1.4))
        idirect = float(rng.uniform(0.0, 0.6))
        xa, xb = reference.centered_pair(SIMULATE_SITES, separation)
        argv = [
            "simulate", "--sites", str(SIMULATE_SITES), "--jk", repr(jk), "--idirect", repr(idirect),
            "--xa", str(xa), "--xb", str(xb), "--format", "json",
        ]  # fmt: skip
        model = {"sites": SIMULATE_SITES, "jk": jk, "idirect": idirect, "xa": xa, "xb": xb}
        return [
            Request(
                label=" ".join(argv),
                run=lambda: call_cli(self.tikm.cli, argv),
                ok=_cli_ok(0),
                check=lambda result: self._check(_record(result), model),
            ),
            Request(
                label=" ".join(SIMULATE_CONTROL),
                run=lambda: call_cli(self.tikm.cli, SIMULATE_CONTROL),
                ok=lambda result: checks.control_exit(result.code),
                check=lambda result: [],
                timed=False,
            ),
        ]

    @staticmethod
    def _check(record: dict, model: dict) -> list[str]:
        half = SIMULATE_SITES // 2
        sector = reference.Sector(SIMULATE_SITES, 1.0, model["jk"], model["idirect"], model["xa"], model["xb"], half, half)
        energy, psi = sector.ground()
        return checks.simulate(record, model, energy, sector.spin_correlation(psi))


WORKLOADS = {w.name: w for w in (QipMap, CriticalL8, SimulateL10)}
