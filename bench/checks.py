"""Checks of the program's outputs against properties and independent computations.

Each function returns a list of problems, empty when the output is right.
The reference values they compare with come from ``reference`` (the
benchmark's own sector Hamiltonian, ARPACK and <S_A . S_B>) or from the test
suite's full-Fock-space oracle, never from a stored copy of earlier output.
"""

from __future__ import annotations

FS_MIN, FS_MAX = -0.75, 0.25
CRITICAL_TARGET = -0.25
#: f_s changes by about 0.25 per unit of jk or idirect near the crossings, so a
#: midpoint within tol = 1e-4 of the crossing is within about 3e-5 of the target.
CRITICAL_FS_ATOL = 1e-3
ENERGY_RTOL = 1e-8
FS_ATOL = 1e-8
ORACLE_ATOL = 1e-9
WERNER_RESIDUAL_MAX = 1e-8
CLOSED_FORM_ATOL = 1e-12
#: Exit code of a degenerate ground state, the right answer for two free impurities.
EXIT_DEGENERATE = 5


def closed_form_concurrence(f_s: float) -> float:
    """Concurrence (= negativity) of the singlet-triplet mixture with <S_A . S_B> = f_s."""
    return max(0.0, -2.0 * f_s - 0.5)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _report_problems(where: str, f_s: float, concurrence: float, negativity: float) -> list[str]:
    if not all(_is_number(v) for v in (f_s, concurrence, negativity)):
        return [f"{where}: f_s {f_s!r}, concurrence {concurrence!r}, negativity {negativity!r} are not all numbers"]
    problems = []
    if not FS_MIN - CLOSED_FORM_ATOL <= f_s <= FS_MAX + CLOSED_FORM_ATOL:
        problems.append(f"{where}: f_s = {f_s!r} outside [-3/4, 1/4]")
    expect = closed_form_concurrence(f_s)
    for name, value in (("concurrence", concurrence), ("negativity", negativity)):
        if abs(value - expect) > CLOSED_FORM_ATOL:
            problems.append(f"{where}: {name} {value!r} != max(0, -2 f_s - 1/2) = {expect!r}")
    return problems


def sweep_row(grid, points) -> list[str]:
    """Every point of one ``sweep`` row: its grid value, f_s range and closed-form measures."""
    if len(points) != len(grid):
        return [f"sweep returned {len(points)} points for a grid of {len(grid)}"]
    problems = []
    for value, point in zip(grid, points):
        where = f"sweep point {value!r}"
        if point.value != value:
            problems.append(f"{where}: reported at value {point.value!r}")
        elif point.error is not None or point.report is None:
            problems.append(f"{where}: no result ({point.error})")
        else:
            problems += _report_problems(where, point.f_s, point.report.concurrence, point.report.negativity)
    return problems


def oracle_point(point, oracle) -> list[str]:
    """One sweep point against the full-Fock-space ground state (energy, f_s) at the same model."""
    energy, f_s = oracle
    problems = []
    if abs(point.energy - energy) > ORACLE_ATOL:
        problems.append(f"sweep point {point.value!r}: energy {point.energy!r} != oracle {energy!r}")
    if abs(point.f_s - f_s) > ORACLE_ATOL:
        problems.append(f"sweep point {point.value!r}: f_s {point.f_s!r} != oracle {f_s!r}")
    return problems


def critical(record: dict, param: str, lo: float, hi: float, tol: float, fs_at) -> list[str]:
    """A ``tikm critical`` JSON record against f_s recomputed by ``fs_at(parameter value)``.

    The true crossing lies within tol/2 of the reported midpoint, so f_s at
    value - tol and value + tol must fall on opposite sides of the target.
    """
    problems = []
    if (record.get("param"), record.get("target_fs"), record.get("tol")) != (param, CRITICAL_TARGET, tol):
        problems.append(f"critical: echoed inputs {record!r} differ from param={param}, tol={tol}")
    value, f_s = record.get("value"), record.get("fs")
    if not _is_number(value) or not _is_number(f_s) or not lo <= value <= hi:
        return problems + [f"critical: value {value!r} / fs {f_s!r} not a crossing inside [{lo!r}, {hi!r}]"]
    if abs(f_s - CRITICAL_TARGET) > CRITICAL_FS_ATOL:
        problems.append(f"critical: fs {f_s!r} is not within {CRITICAL_FS_ATOL} of {CRITICAL_TARGET}")
    below, at, above = fs_at(value - tol), fs_at(value), fs_at(value + tol)
    if (below - CRITICAL_TARGET) * (above - CRITICAL_TARGET) >= 0.0:
        problems.append(f"critical: f_s({value!r} -/+ tol) = {below!r}, {above!r} do not straddle {CRITICAL_TARGET}")
    if abs(at - f_s) > FS_ATOL:
        problems.append(f"critical: fs {f_s!r} != recomputed {at!r}")
    return problems


def simulate(record: dict, model: dict, energy: float, f_s: float) -> list[str]:
    """A ``tikm simulate`` JSON record of a coupled model against its recomputed ground state."""
    problems = [f"simulate: {key} = {record.get(key)!r}, asked {want!r}" for key, want in model.items() if record.get(key) != want]
    got = record.get("energy")
    if not _is_number(got) or abs(got - energy) > ENERGY_RTOL * max(1.0, abs(energy)):
        problems.append(f"simulate: energy {got!r} != eigsh {energy!r}")
    got_fs = record.get("fs")
    if not _is_number(got_fs) or abs(got_fs - f_s) > FS_ATOL:
        return problems + [f"simulate: fs {got_fs!r} != eigsh vector's {f_s!r}"]
    residual = record.get("werner_residual")
    if not _is_number(residual) or not residual < WERNER_RESIDUAL_MAX:
        problems.append(f"simulate: werner_residual {residual!r} is not below {WERNER_RESIDUAL_MAX}")
    if record.get("singlet") is not True or record.get("degenerate") is not False:
        problems.append(f"simulate: coupled model reported singlet={record.get('singlet')!r}")
    return problems + _report_problems("simulate", got_fs, record.get("concurrence"), record.get("negativity"))


def control_exit(code: int) -> bool:
    """Two free impurities leave the in-sector ground state degenerate: the run must refuse with exit 5."""
    return code == EXIT_DEGENERATE
