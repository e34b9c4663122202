"""Tests of the benchmark itself: its reference, its checks and its tracer.

    python3 -m pytest -q bench/test_bench.py

Each check must accept the program's real output and reject a perturbed copy
of it; the reference Hamiltonian must equal the program's and agree with the
full-Fock-space oracle; the tracer's self times and counts must add up.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tikm  # noqa: E402
import tikm.cli  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_time  # noqa: E402

ks = tikm.kondo_sim
ORACLES = reference.load_oracles(ROOT)


@pytest.mark.parametrize("sites", range(1, 7))
def test_reference_hamiltonian_equals_program(sites):
    placements = {(0, sites - 1), ((sites - 1) // 2, sites // 2), (sites // 2, sites // 2)}
    for xa, xb in placements:
        for nup, ndn in ((sites // 2, sites // 2), ((sites + 1) // 2, sites // 2)):
            model = ks.ChainModel(sites=sites, hopping=0.7, jk=1.3, idirect=-0.4, xa=xa, xb=xb, nup=nup, ndn=ndn)
            basis = ks.build_basis(model)
            codes = reference.sector_codes(sites, nup, ndn)
            assert np.array_equal(codes, basis.codes)
            h = reference.hamiltonian(codes, sites, 0.7, 1.3, -0.4, xa, xb)
            # diagonal terms are summed in another order, so equal up to rounding
            assert abs(h - ks.build_hamiltonian(model, basis)).max() < 1e-14


@pytest.mark.parametrize("sites,jk,idirect", [(2, 1.1, 0.3), (3, 0.6, -0.8), (4, 2.0, 1.5)])
def test_reference_ground_state_matches_full_space_oracle(sites, jk, idirect):
    half = sites // 2
    energy, f_s, _ = ORACLES.full_space_ground(sites, 1.0, jk, idirect, 0, sites - 1, 2 * half)
    sector = reference.Sector(sites, 1.0, jk, idirect, 0, sites - 1, half, half)
    e, psi = sector.ground()
    assert e == pytest.approx(energy, abs=1e-10)
    assert sector.spin_correlation(psi) == pytest.approx(f_s, abs=1e-9)


def test_reference_ground_uses_arpack_above_dense_size():
    sector = reference.Sector(6, 1.0, 0.9, 0.2, 2, 3, 3, 3)
    e, psi = sector.ground()
    w = np.linalg.eigvalsh(sector.h.toarray())
    assert sector.h.shape[0] > 64
    assert e == pytest.approx(w[0], abs=1e-10)
    assert np.linalg.norm(sector.h @ psi - e * psi) < 1e-9


def _row(jk=1.3, xa=1, xb=2):
    return ks.sweep(ks.ChainModel(sites=4, jk=jk, xa=xa, xb=xb), "idirect", workloads.QIP_GRID, max_workers=1)


def test_sweep_row_check_accepts_real_row_and_rejects_shifted_fs():
    points = _row()
    assert checks.sweep_row(workloads.QIP_GRID, points) == []
    # at an entangled point a shifted f_s no longer matches the reported concurrence;
    # at a separable one only the oracle comparison below can see it
    assert points[10].report.concurrence > 0.0
    shifted = list(points)
    shifted[10] = replace(points[10], f_s=points[10].f_s + 0.01)
    assert checks.sweep_row(workloads.QIP_GRID, shifted)
    out_of_range = list(points)
    out_of_range[0] = replace(points[0], f_s=0.3)
    assert checks.sweep_row(workloads.QIP_GRID, out_of_range)
    assert checks.sweep_row(workloads.QIP_GRID, points[:-1])


def test_oracle_check_rejects_shifted_energy_and_fs():
    points = _row()
    k = 2  # a separable point, where the closed-form check cannot see a shifted f_s
    assert points[k].report.concurrence == 0.0
    energy, f_s, _ = ORACLES.full_space_ground(4, 1.0, 1.3, workloads.QIP_GRID[k], 1, 2, 4)
    assert checks.oracle_point(points[k], (energy, f_s)) == []
    assert checks.oracle_point(replace(points[k], energy=points[k].energy + 1e-6), (energy, f_s))
    assert checks.oracle_point(replace(points[k], f_s=points[k].f_s - 1e-6), (energy, f_s))


def _fs_at_l4(jk):
    sector = reference.Sector(4, 1.0, jk, 0.0, 1, 2, 2, 2)
    return sector.spin_correlation(sector.ground()[1])


def test_critical_check_accepts_real_crossing_and_rejects_perturbed_ones():
    argv = ["critical", "--sites", "4", "--param", "jk", "--min", "0.5", "--max", "6", "--tol", "1e-4", "--format", "json"]
    result = workloads.call_cli(tikm.cli, argv)
    assert result.code == 0, result.err
    record = json.loads(result.out)
    assert checks.critical(record, "jk", 0.5, 6.0, 1e-4, _fs_at_l4) == []
    for wrong in (dict(fs=record["fs"] + 0.01), dict(fs=record["fs"] + 1e-6), dict(value=record["value"] + 0.01), dict(tol=1e-3)):
        assert checks.critical(dict(record, **wrong), "jk", 0.5, 6.0, 1e-4, _fs_at_l4), wrong


def _simulate_l6():
    argv = ["simulate", "--sites", "6", "--jk", "1.1", "--idirect", "0.3", "--xa", "1", "--xb", "4", "--format", "json"]
    result = workloads.call_cli(tikm.cli, argv)
    assert result.code == 0, result.err
    sector = reference.Sector(6, 1.0, 1.1, 0.3, 1, 4, 3, 3)
    energy, psi = sector.ground()
    model = {"sites": 6, "jk": 1.1, "idirect": 0.3, "xa": 1, "xb": 4}
    return json.loads(result.out), model, energy, sector.spin_correlation(psi)


def test_simulate_check_accepts_real_output_and_rejects_perturbed_ones():
    record, model, energy, f_s = _simulate_l6()
    assert checks.simulate(record, model, energy, f_s) == []
    assert checks.simulate(dict(record, energy=record["energy"] + 1e-6), model, energy, f_s)
    assert checks.simulate(dict(record, fs=record["fs"] + 1e-6), model, energy, f_s)
    assert checks.simulate(dict(record, singlet=False, degenerate=True), model, energy, f_s)
    assert checks.simulate(dict(record, werner_residual=0.97), model, energy, f_s)
    assert checks.simulate(dict(record, concurrence=0.0), model, energy, f_s)
    assert checks.simulate(record, dict(model, jk=1.2), energy, f_s)


def test_control_check_wants_the_degenerate_exit_code():
    assert checks.control_exit(5)
    assert not checks.control_exit(0)
    assert not checks.control_exit(2)


def test_same_seed_gives_same_inputs():
    for cls in workloads.WORKLOADS.values():
        w = cls(tikm, ORACLES)
        a = [r.label for k in range(3) for r in w.round(np.random.default_rng(7), k)]
        b = [r.label for k in range(3) for r in w.round(np.random.default_rng(7), k)]
        c = [r.label for k in range(3) for r in w.round(np.random.default_rng(8), k)]
        assert a == b != c


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = Span("driver", "sweep", 1, None, 0.0, 10.0)
    children = [
        Span("solve", "a", 2, parent, 1.0, 4.0),
        Span("solve", "b", 3, parent, 2.0, 5.0),
        Span("solve", "c", 2, parent, 7.0, 8.0),
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_counts_a_sweep_and_restores_the_package():
    original = ks.build_hamiltonian
    grid = [0.0, 0.5, 1.0]
    with Tracer() as tracer:
        tracer.install(tikm)
        assert ks.build_hamiltonian is not original
        points = ks.sweep(ks.ChainModel(sites=4, jk=1.0), "idirect", grid, max_workers=2)
    assert ks.build_hamiltonian is original
    m = tracer.layer_metrics(1)
    # each point solves its own sector and the S^z + 1 sector for the singlet verdict
    assert m["driver.points"] == len(grid)
    assert m["assembly.calls"] == m["solve.calls"] == m["basis.calls"] == 2 * len(grid)
    assert m["singlet.calls"] == m["rdm.calls"] == len(grid)
    assert m["solve.dense_calls"] == 2 * len(grid)
    assert m["basis.states"] == sum(ks.build_basis(ks.ChainModel(sites=4), s).dim for s in (0, 1)) * len(grid)
    sweep_spans = [s for s in tracer.spans if s.name == "kondo_sim.sweep"]
    assert len(sweep_spans) == 1 and all(p.error is None for p in points)
    assert all(s.parent is sweep_spans[0] for s in tracer.spans if s.name == "kondo_sim.build_basis" and s.parent.layer != "singlet")
