"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np

from tikm import cli, kondo_sim, measures, qmat, rkky, werner

from oracles import si_quad


def _report(number, description, ok, started, limit):
    elapsed = time.perf_counter() - started
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d} ({elapsed:6.2f}s < {limit:.0f}s): {description}")
    assert ok, f"criterion {number}: {description}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_01_closed_form_fidelity():
    started = time.perf_counter()
    chsh_p = werner.CHSH_FIDELITY
    cases = {0.0: 0.0, 0.25: 0.0, 0.5: 0.0, chsh_p: 2.0 * chsh_p - 1.0, 1.0: 1.0}
    ok = all(werner.concurrence_closed(werner.from_fidelity(p)) == c for p, c in cases.items())
    # threshold exactly at f_s = -1/4 with machine-exact boundary behavior
    boundary = werner.from_correlation(-0.25)
    ok = ok and boundary.p_s == 0.5 and werner.concurrence_closed(boundary) == 0.0
    two_ulp_below = float(np.nextafter(np.nextafter(-0.25, -1.0), -1.0))
    ok = ok and werner.concurrence_closed(werner.from_correlation(two_ulp_below)) > 0.0
    ok = ok and werner.concurrence_closed(werner.from_fidelity(float(np.nextafter(0.5, 1.0)))) > 0.0
    _report(1, "closed-form concurrence values and the f_s = -1/4 threshold", ok, started, 1.0)


def test_criterion_02_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst_c = worst_n = 0.0
    for p_s in rng.uniform(0.0, 1.0, 1000):
        rho = werner.density_matrix(werner.from_fidelity(float(p_s)))
        closed = max(2.0 * float(p_s) - 1.0, 0.0)
        c = measures.concurrence_wootters(rho)
        n = measures.negativity_general(rho)
        worst_c = max(worst_c, abs(c - closed))
        worst_n = max(worst_n, abs(n - c))
    ok = worst_c < 1e-10 and worst_n < 1e-10
    _report(2, f"1000-state spin-flip/transpose oracles (worst {worst_c:.1e}, {worst_n:.1e})", ok, started, 10.0)


def test_criterion_03_entropy_endpoints():
    started = time.perf_counter()
    ok = werner.pair_entropy(werner.from_fidelity(1.0)) == 0.0
    ok = ok and werner.pair_entropy(werner.from_fidelity(0.25)) == 2.0
    ok = ok and abs(werner.pair_entropy(werner.from_fidelity(0.0)) - math.log2(3.0)) <= 1e-12
    for p_s in np.linspace(0.0, 1.0, 21):
        w = werner.from_fidelity(float(p_s))
        ok = ok and werner.classify(w).single_entropy == 1.0
        rho = werner.density_matrix(w)
        for side in ("A", "B"):
            ok = ok and abs(qmat.vn_entropy(qmat.partial_trace(rho, side)) - 1.0) <= 1e-10
    _report(3, "pair-entropy endpoints and unit marginal entropy", ok, started, 1.0)


def test_criterion_04_threshold_flips():
    started = time.perf_counter()
    tele = [werner.classify(werner.from_fidelity(p)).teleportation_useful for p in (0.5 - 1e-9, 0.5, 0.5 + 1e-9)]
    ok = tele == [False, True, True]
    p_star = werner.CHSH_FIDELITY
    chsh = [werner.classify(werner.from_fidelity(p)).chsh_violating for p in (p_star - 1e-9, p_star, p_star + 1e-9)]
    ok = ok and chsh == [False, False, True]
    ok = ok and abs(p_star - 0.780330) <= 1e-6
    ok = ok and abs(werner.CHSH_CORRELATION - (-0.530330)) <= 1e-6
    _report(4, "teleportation flips at p_s = 1/2 and CHSH at (1+3/sqrt 2)/4", ok, started, 1.0)


def test_criterion_05_rkky_functions():
    started = time.perf_counter()
    lo, hi = 4.4, 4.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rkky.f3(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    ok = abs(root - 4.493409) <= 1e-6
    ok = ok and abs(rkky.f1(0.0) - (-math.pi / 8.0)) <= 1e-9
    quad_ref = -(0.5 * math.pi - si_quad(math.pi)) / 4.0
    ok = ok and abs(rkky.f1(math.pi) - 0.0702851) <= 1e-6
    ok = ok and abs(rkky.f1(math.pi) - quad_ref) <= 1e-9

    def sign_at(x):
        params = rkky.RkkyParams(j=0.2, fermi_energy=1.0, fermi_wavevector=0.5, dos_fermi=1.0,
                                 bandwidth=1.0, dimension=3, distance=x)
        return rkky.coupling(params).sign_class

    ok = ok and [sign_at(x) for x in (4.4, 4.6, 7.7, 7.8)] == ["AFM", "FM", "FM", "AFM"]
    _report(5, "range-function zeros, endpoints and coupling sign alternation", ok, started, 5.0)


def test_criterion_06_microscopic_werner_form():
    started = time.perf_counter()
    ok = True
    for sites in (2, 4, 6):
        for jk in (0.2, 0.5, 1.0):
            model = kondo_sim.ChainModel(sites=sites, jk=jk)
            basis = kondo_sim.build_basis(model)
            g = kondo_sim.ground_state(kondo_sim.build_hamiltonian(model, basis))
            ok = ok and not g.degenerate and kondo_sim.singlet_check(model, g.energy)
            rho = kondo_sim.impurity_rdm(g, basis)
            ok = ok and measures.werner_residual(rho) < 1e-8
            for side in ("A", "B"):
                marg = qmat.partial_trace(rho, side)
                ok = ok and np.abs(marg - np.eye(2) / 2).max() <= 1e-8
    _report(6, "half-filled chain ground states are rotation invariant", ok, started, 60.0)


def test_criterion_07_strong_direct_exchange_limits(solve_on):
    started = time.perf_counter()
    model = kondo_sim.ChainModel(sites=2, nup=0, ndn=0, idirect=1.0)
    basis = kondo_sim.build_basis(model)
    rho = kondo_sim.impurity_rdm(kondo_sim.ground_state(kondo_sim.build_hamiltonian(model, basis)), basis)
    f_s = measures.spin_correlation(rho)
    c = werner.concurrence_closed(werner.from_correlation(f_s))
    ok = f_s == -0.75 and c == 1.0
    concs = []
    for idirect in (0.0, 1.0, 2.0, 4.0, 8.0):
        m = kondo_sim.ChainModel(sites=4, jk=0.5, idirect=idirect)
        b = kondo_sim.build_basis(m)
        g = solve_on(kondo_sim.build_hamiltonian(m, b), "dense")
        concs.append(werner.concurrence_closed(werner.from_correlation(
            measures.spin_correlation(kondo_sim.impurity_rdm(g, b)))))
    ok = ok and all(b > a for a, b in zip(concs, concs[1:])) and concs[-1] > 0.995
    _report(7, f"direct-exchange limits (grid C: {concs[0]:.4f} -> {concs[-1]:.4f})", ok, started, 60.0)


def test_criterion_08_solver_equivalence(solve_on):
    started = time.perf_counter()
    models = [
        kondo_sim.ChainModel(sites=2, jk=0.5),
        kondo_sim.ChainModel(sites=2, jk=1.0),
        kondo_sim.ChainModel(sites=2, jk=2.0),
        kondo_sim.ChainModel(sites=2, jk=0.5, idirect=0.4),
        kondo_sim.ChainModel(sites=3, nup=2, ndn=1, jk=0.7),
        kondo_sim.ChainModel(sites=4, jk=0.5),
        kondo_sim.ChainModel(sites=4, jk=1.0),
        kondo_sim.ChainModel(sites=4, jk=0.5, idirect=1.0),
        kondo_sim.ChainModel(sites=5, nup=2, ndn=2, jk=0.8),
    ]
    ok = True
    for model in models:
        basis = kondo_sim.build_basis(model)
        assert basis.dim <= 512
        h = kondo_sim.build_hamiltonian(model, basis)
        dense = solve_on(h, "dense")
        lanczos = solve_on(h, "lanczos")
        ok = ok and abs(dense.energy - lanczos.energy) < 1e-8
        fs_d = measures.spin_correlation(kondo_sim.impurity_rdm(dense, basis))
        fs_l = measures.spin_correlation(kondo_sim.impurity_rdm(lanczos, basis))
        ok = ok and abs(fs_d - fs_l) < 1e-8
    _report(8, f"Lanczos/dense agreement on {len(models)} small-sector models", ok, started, 30.0)


def test_criterion_09_crossing_detection(capsys, tmp_path):
    started = time.perf_counter()
    out_path = tmp_path / "crossing.json"
    tol = 1e-3
    code = cli.main(["critical", "--param", "jk", "--min", "1", "--max", "2", "--tol", str(tol),
                     "--sites", "2", "--format", "json", "--out", str(out_path)])
    capsys.readouterr()
    rec = json.loads(out_path.read_text())
    # dense 1e-4 parameter scan, linearly interpolated at the sign change
    line = kondo_sim.CouplingLine(kondo_sim.ChainModel(sites=2), "jk")
    step = 1e-4
    xs = np.arange(1.78, 1.85 + step / 2, step)
    fs = [line.correlation(float(x)) for x in xs]
    scan = None
    for k in range(len(xs) - 1):
        if (fs[k] + 0.25) * (fs[k + 1] + 0.25) <= 0.0:
            scan = float(xs[k]) + (-0.25 - fs[k]) * step / (fs[k + 1] - fs[k])
            break
    # pre-verify monotonicity of the coarse window, then compare
    ok = code == 0 and scan is not None
    ok = ok and all(b > a for a, b in zip(fs, fs[1:]))
    ok = ok and abs(rec["value"] - scan) <= tol
    ok = ok and abs(rec["fs"] + 0.25) <= 2e-3
    _report(9, f"bisected crossing {rec['value']:.6f} vs scan {scan:.6f}", ok, started, 120.0)


def test_criterion_10_determinism(capsys, tmp_path):
    started = time.perf_counter()
    ok = True
    fixtures = [
        ["diagram", "--steps", "101"],
        ["rkky", "--dim", "3", "--j", "0.2", "--ef", "1", "--kf", "0.5", "--rhof", "1",
         "--bandwidth", "1", "--r-min", "0.5", "--r-max", "10", "--steps", "64"],
        ["simulate", "--sites", "6", "--jk", "0.5", "--format", "csv"],
    ]
    for k, argv in enumerate(fixtures):
        a, b = tmp_path / f"run{k}a.csv", tmp_path / f"run{k}b.csv"
        ok = ok and cli.main(argv + ["--out", str(a)]) == 0
        ok = ok and cli.main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    _report(10, "repeated runs produce bit-identical CSV fixtures", ok, started, 60.0)
