import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tikm import cli, kondo_sim
from tikm.errors import (
    DegenerateGroundError,
    DomainError,
    EmptySectorError,
    NoBracketError,
    NonMonotoneError,
    NotConvergedError,
    NotHermitianError,
    OutOfRangeError,
)

from oracles import sdots_expectation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- werner


def test_werner_maximally_entangled(capsys):
    code, out, _ = run(capsys, "werner", "--fs", "-0.75", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["concurrence"] == 1.0
    assert rec["entangled"] is True and rec["chsh"] is True


def test_werner_totally_mixed(capsys):
    code, out, _ = run(capsys, "werner", "--fs", "0", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["concurrence"] == 0.0
    assert rec["pair_entropy"] == 2.0
    assert not (rec["entangled"] or rec["teleport"] or rec["chsh"])


def test_werner_teleportation_boundary(capsys):
    code, out, _ = run(capsys, "werner", "--ps", "0.5", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["concurrence"] == 0.0 and rec["teleport"] is True


def test_werner_out_of_range_exit_code(capsys):
    code, _, err = run(capsys, "werner", "--fs", "0.5")
    assert code == 2 and "outside" in err


def test_werner_flag_validation():
    with pytest.raises(SystemExit) as info:
        cli.main(["werner", "--fs", "0", "--ps", "0.5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["werner"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["werner", "--fs", "0", "--bogus"])
    assert info.value.code == 2


# ---------------------------------------------------------------- diagram


def test_diagram_grid_properties(capsys, tmp_path):
    out_path = tmp_path / "diagram.csv"
    code, _, _ = run(capsys, "diagram", "--fs-min", "-0.75", "--fs-max", "0.25", "--steps", "101", "--out", str(out_path))
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == list(cli._DIAGRAM_COLUMNS)
    assert len(rows) == 101
    for row in rows:
        f_s = float(row["fs"])
        c = float(row["concurrence"])
        assert (c > 0.0) == (f_s < -0.25)
        assert row["concurrence"] == row["negativity"]
    assert abs(float(rows[-1]["pair_entropy"]) - math.log2(3.0)) <= 1e-12
    assert float(rows[0]["pair_entropy"]) == 0.0
    assert float(rows[0]["fs"]) == -0.75 and float(rows[-1]["fs"]) == 0.25


def test_diagram_json_schema(capsys):
    code, out, _ = run(capsys, "diagram", "--steps", "5", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 5
    for rec in records:
        assert set(rec) == set(cli._DIAGRAM_COLUMNS)
        for key in ("fs", "ps", "pt", "concurrence", "negativity", "pair_entropy", "single_entropy"):
            assert math.isfinite(rec[key])


def test_diagram_bad_inputs(capsys):
    assert run(capsys, "diagram", "--fs-min", "0.2", "--fs-max", "0.1")[0] == 2
    assert run(capsys, "diagram", "--fs-min", "-0.8", "--fs-max", "0")[0] == 2
    assert run(capsys, "diagram", "--steps", "1")[0] == 2


def test_diagram_unwritable_path(capsys):
    code, _, err = run(capsys, "diagram", "--out", "/nonexistent-dir/x.csv")
    assert code == 3 and err


# ---------------------------------------------------------------- rkky


RKKY_BASE = ["rkky", "--dim", "3", "--j", "0.2", "--ef", "1", "--kf", "0.5", "--rhof", "1", "--bandwidth", "1"]


def test_rkky_sign_flip(capsys):
    code, out, _ = run(capsys, *RKKY_BASE, "--r-min", "4.4", "--r-max", "4.6", "--steps", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["sign_class"] == "AFM"
    assert rows[-1]["sign_class"] == "FM"
    assert abs(float(rows[0]["x"]) - 4.4) <= 1e-12


def test_rkky_one_dimensional_fm_at_short_distance(capsys):
    code, out, _ = run(capsys, "rkky", "--dim", "1", "--j", "0.2", "--ef", "1", "--kf", "0.5",
                       "--rhof", "1", "--bandwidth", "1", "--r-min", "1e-6", "--r-max", "1", "--steps", "4")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["sign_class"] == "FM"


def test_rkky_bandwidth_scaling_exact(capsys):
    args = RKKY_BASE[:]
    code1, out1, _ = run(capsys, *args, "--r-min", "1", "--r-max", "2", "--steps", "4")
    args[args.index("--bandwidth") + 1] = "2"
    code2, out2, _ = run(capsys, *args, "--r-min", "1", "--r-max", "2", "--steps", "4")
    assert code1 == code2 == 0
    _, rows1 = parse_csv(out1)
    _, rows2 = parse_csv(out2)
    for r1, r2 in zip(rows1, rows2):
        assert float(r2["tk"]) == 2.0 * float(r1["tk"])
        assert r1["coupling"] == r2["coupling"]


def test_rkky_domain_error_exit(capsys):
    code, _, err = run(capsys, *RKKY_BASE, "--r-min", "-1", "--r-max", "1", "--steps", "3")
    assert code == 2 and err


@pytest.mark.parametrize("flag,value", [("--kf", "nan"), ("--ef", "inf")])
def test_rkky_rejects_non_finite_input(capsys, flag, value):
    argv = RKKY_BASE[:]
    argv[argv.index(flag) + 1] = value
    code, out, err = run(capsys, *argv, "--r-min", "1", "--r-max", "2", "--steps", "3")
    assert code == 2 and "finite" in err and out == ""


@pytest.mark.parametrize("j, ef", [("0.001", "1"), ("0.0014", "1e10")])
def test_rkky_rejects_kondo_scale_out_of_float_range(capsys, j, ef):
    # g = 0.001 underflows exp(-1/g) to T_K = 0; g = 0.0014 leaves a subnormal
    # T_K that makes I/T_K overflow
    argv = RKKY_BASE[:]
    argv[argv.index("--j") + 1] = j
    argv[argv.index("--ef") + 1] = ef
    code, out, err = run(capsys, *argv, "--r-min", "0.5", "--r-max", "10", "--steps", "3", "--format", "json")
    assert code == 2 and err.startswith("tikm: ") and out == ""


# ---------------------------------------------------------------- simulate


def test_simulate_two_spin_model(capsys):
    code, out, _ = run(capsys, "simulate", "--sites", "2", "--nup", "0", "--ndn", "0",
                       "--idirect", "1", "--jk", "0", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["fs"] == -0.75
    assert rec["concurrence"] == 1.0
    assert rec["singlet"] is True
    assert rec["energy"] == -0.75


def test_simulate_solver_equivalence(capsys):
    # dimension 1250 sector: the CLI takes the Lanczos path; the reference is a
    # dense eigensolve of the same sector with f_s read off the amplitudes
    code, out, _ = run(capsys, "simulate", "--sites", "6", "--jk", "0.5", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    model = kondo_sim.ChainModel(sites=6, jk=0.5)
    basis = kondo_sim.build_basis(model)
    values, vectors = np.linalg.eigh(kondo_sim.build_hamiltonian(model, basis).toarray())
    assert rec["method"] == "lanczos" and rec["sector_dim"] == basis.dim
    assert abs(rec["energy"] - values[0]) <= 1e-8
    assert abs(rec["fs"] - sdots_expectation(basis.codes, vectors[:, 0], basis.n_orbitals)) <= 1e-8


def test_simulate_dense_flag_is_gone():
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--sites", "4", "--jk", "0.5", "--dense"])
    assert info.value.code == 2


def test_simulate_degenerate_exit(capsys):
    code, _, err = run(capsys, "simulate", "--sites", "2", "--jk", "0", "--idirect", "0")
    assert code == 5 and "degenerate" in err.lower()


@pytest.mark.parametrize(
    "sites, nup, ndn, method",
    [(4, 3, 1, "dense"), (4, 2, 1, "dense"), (6, 4, 2, "lanczos")],
    ids=["L4-even", "L4-odd", "L6-lanczos"],
)
def test_simulate_mirrored_fillings_agree(capsys, sites, nup, ndn, method):
    # a global spin flip maps the filling (nup, ndn) onto (ndn, nup): both
    # have the same energy, f_s and singlet/degenerate verdicts
    a, b = (
        json.loads(run(capsys, "simulate", f"--sites={sites}", "--jk=1", f"--nup={up}", f"--ndn={dn}",
                       "--format", "json")[1])
        for up, dn in ((nup, ndn), (ndn, nup))
    )
    assert a["method"] == b["method"] == method
    assert (a["singlet"], a["degenerate"]) == (b["singlet"], b["degenerate"])
    assert abs(a["energy"] - b["energy"]) <= 1e-8 and abs(a["fs"] - b["fs"]) <= 1e-8


def test_simulate_refuses_a_hopping_near_the_float_limit():
    # a hopping of 1e308 overflowed the dense solve (exit 4) before
    # ChainModel refused couplings above MAX_COUPLING; the command runs in a
    # fresh interpreter, so a warning numpy printed would show in stderr
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = ["simulate", "--sites", "4", "--hopping", "1e308", "--jk", "1", "--format", "json"]
    result = subprocess.run([sys.executable, "-m", "tikm.cli", *argv], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "tikm: hopping must be at most 1e+150 in size, got 1e+308\n"


def test_simulate_refuses_a_kondo_coupling_near_the_float_limit(capsys):
    # a Kondo coupling of 1e308 overflowed the first Lanczos step (exit 4);
    # it is now refused before the basis is enumerated
    code, out, err = run(capsys, "simulate", "--sites", "8", "--jk", "1e308", "--format", "json")
    assert code == 2 and out == ""
    assert err == "tikm: jk must be at most 1e+150 in size, got 1e+308\n"


def test_simulate_refuses_a_subnormal_kondo_coupling(capsys):
    # below MIN_COUPLING, H_rest + p * H_p could round where the direct build
    # does not; no printed number told such a coupling from 0
    code, out, err = run(capsys, "simulate", "--sites", "8", "--jk", "5e-324", "--format", "json")
    assert code == 2 and out == ""
    assert err == "tikm: jk must be 0 or at least 8.9003e-308 in size, got 5e-324\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--sites", "6", "--hopping", "0", "--jk", "1"),
        ("--sites", "8", "--hopping", "0", "--jk", "1", "--idirect", "0.3"),
        ("--sites", "6", "--jk", "0"),
    ],
    ids=["L6", "L8", "L6-free"],
)
def test_simulate_decoupled_sites_degenerate_exit(capsys, flags):
    # with hopping 0 the chain falls apart into single sites, and with jk 0 the
    # impurities are free; either way the ground level is degenerate.  The
    # Lanczos Krylov space closes after one vector per distinct level, so its
    # gap cannot see it, but the solved vector mixes values of S (<S^2> 1.66,
    # 1.71 and 1.90), which the S^2 check of simulate refuses
    code, out, err = run(capsys, "simulate", *flags)
    assert code == 5 and out == "" and "degenerate" in err.lower()


def test_simulate_not_converged_exit(capsys, monkeypatch):
    def stall(*args, **kwargs):
        raise NotConvergedError("stalled", iterations=3, residual=1.0)

    monkeypatch.setattr(kondo_sim, "ground_state", stall)
    code, _, err = run(capsys, "simulate", "--sites", "2", "--jk", "0.5")
    assert code == 4 and "stalled" in err


def test_simulate_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("sites = 2\njk = 5.0\nnup = 1\nndn = 1\n")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--jk", "1.0", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["sites"] == 2 and rec["jk"] == 1.0  # flag wins over file


def test_simulate_config_file_comments_and_spacing(capsys, tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("# comment\nsites = 4\njk = 0.5   # trailing\n\n  idirect=-0.25\nnup=2\nndn = 2\n")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--format", "json")
    flags = ("--sites", "4", "--jk", "0.5", "--idirect", "-0.25", "--nup", "2", "--ndn", "2")
    assert code == 0 and out == run(capsys, "simulate", *flags, "--format", "json")[1]


def test_simulate_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("sites = 2\nvolume = 3\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and "volume" in err
    assert err == f"tikm: {cfg}:2: unknown key 'volume'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("sites 4\n", "1: expected 'key = value', got 'sites 4'"),
        ("sites = 4\njk = abc\n", "2: invalid float value for jk: 'abc'"),
        ("# L\nsites = 4.5\n", "2: invalid int value for sites: '4.5'"),
        ("sites = 4\nxa =\n", "2: invalid int value for xa: ''"),
        ("sites = 2\nvolume = 3\n", "2: unknown key 'volume'"),
    ],
    ids=["garbage", "float", "int", "empty", "unknown_key"],
)
def test_simulate_config_file_rejects_bad_line(capsys, tmp_path, text, message):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"tikm: {cfg}:{message}\n")


@pytest.mark.parametrize("coupling", ["--jk=nan", "--hopping=inf", "--idirect=-inf"])
def test_simulate_rejects_non_finite_coupling(capsys, coupling):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", "--sites", "4", coupling, "--format", "json")
    assert code == 2 and "finite" in err and out == ""


@pytest.mark.parametrize(
    "fields",
    [
        {"sites": 2, "jk": 1.0},
        {"sites": 3, "jk": 0.7, "nup": 2, "ndn": 1},
        {"sites": 5, "jk": 0.6, "idirect": 0.3},
        {"sites": 6, "jk": 0.5, "idirect": -0.2, "xa": 1, "xb": 4},
    ],
)
def test_simulate_sweep_and_point_correlation_agree(capsys, fields):
    code, out, _ = run(capsys, "simulate", *(f"--{k}={v!r}" for k, v in fields.items()), "--format", "json")
    assert code == 0
    rec = json.loads(out)
    model = kondo_sim.ChainModel(**fields)
    (point,) = kondo_sim.sweep(model, "jk", [model.jk])
    assert (point.energy, point.f_s, point.singlet, point.werner_residual) == (
        rec["energy"], rec["fs"], rec["singlet"], rec["werner_residual"]
    )
    assert kondo_sim.CouplingLine(model, "jk").correlation(model.jk) == rec["fs"]


def test_simulate_requires_sites(capsys):
    code, _, err = run(capsys, "simulate", "--jk", "0.5")
    assert code == 2 and "sites" in err


def test_simulate_out_file_and_summary(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    code, out, _ = run(capsys, "simulate", "--sites", "4", "--jk", "0.5", "--format", "json", "--out", str(out_path))
    assert code == 0
    rec = json.loads(out_path.read_text())
    assert rec["werner_residual"] < 1e-8
    assert "E0=" in out  # one-line summary on stdout


# ---------------------------------------------------------------- critical


def test_critical_json_matches_library(capsys):
    code, out, _ = run(capsys, "critical", "--param", "jk", "--min", "1", "--max", "2",
                       "--tol", "1e-4", "--sites", "2", "--format", "json")
    assert code == 0
    assert out.count("\n") == 1  # single line
    rec = json.loads(out)
    direct = kondo_sim.find_crossing(kondo_sim.CouplingLine(kondo_sim.ChainModel(sites=2), "jk"), 1.0, 2.0, tol=1e-4)
    assert rec["value"] == direct
    assert abs(rec["fs"] + 0.25) <= 1e-3


def test_critical_no_bracket_exit(capsys):
    code, _, err = run(capsys, "critical", "--param", "jk", "--min", "0.2", "--max", "0.5", "--sites", "2")
    assert code == 6 and err


def test_critical_jump_exit(capsys):
    # at jk = 1 f_s jumps from about +0.23 to -0.69 as idirect passes -0.0155,
    # straight over the target; bisection closes in on the jump
    code, out, err = run(capsys, "critical", "--sites", "4", "--param", "idirect", "--jk", "1",
                         "--min", "-1.5", "--max", "0", "--format", "json")
    assert code == 7 and "jumps" in err and out == ""


def test_critical_refuses_a_mixed_ground_vector(capsys):
    # at jk = 0 the impurities are free, and at idirect = 0, the first end the
    # search solves on [0, 1.5], singlet and triplet are degenerate; the
    # Lanczos vector mixes them, and its f_s 0.2006 read as a jump (exit 7)
    # before the S^2 check
    code, out, err = run(capsys, "critical", "--sites", "6", "--param", "idirect", "--jk", "0",
                         "--min", "0", "--max", "1.5", "--format", "json")
    assert code == 5 and "mixes spin multiplets" in err and out == ""


def test_critical_free_impurities_jump_exit(capsys):
    # no point the search solves on [-0.4, 1.3], from the two ends on, lands
    # on idirect = 0, and the points beside it are pure: f_s jumps from 1/4 to
    # -3/4 there
    code, out, err = run(capsys, "critical", "--sites", "6", "--param", "idirect", "--jk", "0",
                         "--min", "-0.4", "--max", "1.3", "--format", "json")
    assert code == 7 and "jumps" in err and "from 0.250000 to -0.750000" in err and out == ""


def test_critical_exits_4_when_a_solve_misses_the_ground_state(capsys, excite_solve):
    # the third solve, the search's first step, returns the first
    # excited eigenpair; its energy breaks the Hellmann-Feynman bracket with
    # the solved ends
    excite_solve(3)
    code, out, err = run(capsys, "critical", "--sites", "4", "--param", "idirect", "--jk", "3",
                         "--min", "0", "--max", "2", "--format", "json")
    assert code == 4 and out == ""
    assert err.startswith("tikm: the energies at idirect = ") and err.count("\n") == 1
    assert "break the Hellmann-Feynman bracket" in err


@pytest.mark.parametrize(
    "argv, solves",
    [
        (("--param", "jk", "--min", "0.5", "--max", "6"), 13),
        (("--param", "idirect", "--jk", "2", "--min", "-0.5", "--max", "2"), 6),
    ],
    ids=["jk", "idirect"],
)
def test_critical_solve_counts_on_the_lanczos_path(capsys, monkeypatch, argv, solves):
    # every solve is a Lanczos solve of the dim-1250 sector, and none is
    # made again at the returned value
    dims = []
    ground_state = kondo_sim.ground_state
    monkeypatch.setattr(kondo_sim, "ground_state", lambda h, start=None: dims.append(h.shape[0]) or ground_state(h, start))
    code, out, err = run(capsys, "critical", "--sites", "6", *argv, "--tol", "1e-4", "--format", "json")
    assert code == 0, err
    assert dims == [1250] * solves


_CRITICAL_L8 = {
    "jk": ("--param", "jk", "--idirect", "0", "--min", "2", "--max", "3"),
    "idirect": ("--param", "idirect", "--jk", "3", "--min", "0", "--max", "1"),
}


@pytest.mark.parametrize("argv", _CRITICAL_L8.values(), ids=_CRITICAL_L8.keys())
def test_critical_prints_the_same_bytes_at_one_and_two_blas_threads(argv):
    # the search holds numpy's BLAS pool at one thread, so no reduction it
    # prints depends on the pool size the environment asks for; before, the
    # jk value read 2.4487961558104119 at one thread and ...177 at two.  The
    # variable sizes the pool when the interpreter starts, so each run is a
    # fresh one
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "tikm.cli", "critical", "--sites", "8", *argv, "--tol", "1e-4", "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "sites, argv",
    [
        ("4", ("--param", "jk", "--min", "0.5", "--max", "6")),
        ("4", ("--param", "idirect", "--jk", "3", "--min", "0", "--max", "2")),
        ("6", ("--param", "jk", "--min", "0.5", "--max", "6")),
        ("6", ("--param", "idirect", "--jk", "2", "--min", "-0.5", "--max", "2")),
    ],
    ids=["jk", "idirect", "jk-L6", "idirect-L6"],
)
def test_critical_prints_the_same_bytes_with_its_start_points_solved_at_once_or_not(capsys, start_points, sites, argv):
    # at L = 6 (dim 1250) every solve is a Lanczos solve, warm-started from
    # its chain or its nearer bracket end, the same ones in every mode
    outs = []
    for mode in start_points.modes:
        with start_points(mode):
            code, out, err = run(capsys, "critical", "--sites", sites, *argv, "--tol", "1e-4", "--format", "json")
        assert code == 0, err
        outs.append(out)
    assert outs == [outs[0]] * len(outs)


def test_critical_assembles_once(capsys, monkeypatch):
    builds = []
    build = kondo_sim.build_hamiltonian
    monkeypatch.setattr(kondo_sim, "build_hamiltonian", lambda model, *args: builds.append(model) or build(model, *args))
    code, _, err = run(capsys, "critical", "--sites", "4", "--param", "idirect", "--jk", "3",
                       "--min", "-0.2", "--max", "1.5", "--format", "json")
    assert code == 0, err
    # every point of the search solves on the line's two builds, H_rest and
    # H_p, and no point builds its own
    assert builds == [kondo_sim.ChainModel(sites=4, jk=3.0), kondo_sim.ChainModel(sites=4, hopping=0.0, idirect=1.0)]


def test_negative_values_in_exponent_form(capsys):
    # bench inputs are written with repr, which gives -7.1276964192013e-05 for
    # a bracket end just below zero; argparse before 3.13 took it for an option
    code, out, err = run(capsys, "simulate", "--sites", "2", "--idirect", "-7.127696419201301e-05", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["idirect"] == -7.127696419201301e-05
    code, out, err = run(capsys, "critical", "--sites", "2", "--param", "idirect", "--jk", "1", "--min", "-7e-05",
                         "--max", "5", "--format", "json")
    assert code == 6 and "[-7e-05, 5.0]" in err and out == ""  # parsed, then no crossing
    with pytest.raises(SystemExit) as info:
        run(capsys, "simulate", "--sites", "2", "--idirect", "-1x")
    assert info.value.code == 2 and "invalid float value" in capsys.readouterr().err


def test_critical_rejects_non_finite_target(capsys):
    code, out, err = run(capsys, "critical", "--sites", "2", "--param", "jk", "--min", "1", "--max", "2",
                         "--target-fs", "nan", "--format", "json")
    assert code == 2 and "finite" in err and out == ""


def test_critical_rejects_non_finite_tol(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(kondo_sim.CouplingLine, "correlation", lambda line, value: calls.append(value) or 0.0)
    code, out, err = run(capsys, "critical", "--sites", "4", "--param", "jk", "--min", "0.5", "--max", "6",
                         "--tol", "inf", "--format", "json")
    assert code == 2 and "must be finite" in err and out == ""
    assert calls == []  # refused before any solve


@pytest.mark.parametrize("bounds", [("0.5", "inf"), ("0.5", "nan"), ("-inf", "2")])
def test_critical_rejects_non_finite_bounds(capsys, monkeypatch, bounds):
    calls = []
    monkeypatch.setattr(kondo_sim.CouplingLine, "correlation", lambda line, value: calls.append(value) or 0.0)
    code, out, err = run(capsys, "critical", "--sites", "4", "--param", "jk", f"--min={bounds[0]}",
                         f"--max={bounds[1]}", "--format", "json")
    assert code == 2 and "must be finite" in err and out == ""
    assert calls == []  # refused before any solve


def test_critical_non_monotone_exit(capsys, monkeypatch):
    def bumpy(*args, **kwargs):
        raise NonMonotoneError("not monotone", points=[(0.0, 0.1, 1.0, -0.1)])

    monkeypatch.setattr(kondo_sim, "find_crossing", bumpy)
    code, _, err = run(capsys, "critical", "--param", "jk", "--min", "0", "--max", "1", "--sites", "2")
    assert code == 7 and "monotone" in err


# ---------------------------------------------------------------- global behavior


@pytest.mark.parametrize(
    "exc, code",
    [
        (OutOfRangeError("boom"), 2),
        (DomainError("boom"), 2),
        (EmptySectorError("boom"), 2),
        (ValueError("boom"), 2),
        (OSError("boom"), 3),
        (FileNotFoundError("boom"), 3),
        (NotConvergedError("boom"), 4),
        (DegenerateGroundError("boom"), 5),
        (NoBracketError("boom"), 6),
        (NonMonotoneError("boom"), 7),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_error_exit_codes(capsys, monkeypatch, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_werner", fail)
    assert run(capsys, "werner", "--fs", "0") == (code, "", "tikm: boom\n")


def test_unmapped_error_propagates(capsys, monkeypatch):
    def fail(args):
        raise NotHermitianError("boom")

    monkeypatch.setattr(cli, "cmd_werner", fail)
    with pytest.raises(NotHermitianError):
        cli.main(["werner", "--fs", "0"])


def test_import_leaves_scipy_linalg_out():
    # importing scipy.linalg costs about 50 ms of start-up, which only a dense
    # solve pays: `qmat.hermitian_eig`, the one dense eigensolver, loads it
    # when it runs; scipy.special costs 50-70 ms, which only `rkky.f1` needs and loads
    # when it runs; a fresh interpreter sees the imports
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, tikm.cli; print([m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [("werner", "--fs", "-0.5"), ("simulate", "--sites", "6", "--jk", "1")],
    ids=["closed-form", "lanczos"],
)
def test_commands_without_a_dense_solve_leave_scipy_linalg_out(argv):
    # a closed form and a Lanczos solve (L=6, dim 1250) never load it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, contextlib, io, tikm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = tikm.cli.main({list(argv)!r})\n"
        "print(code, 'scipy.linalg' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 False\n"


def test_csv_outputs_bit_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(capsys, "diagram", "--steps", "51", "--out", str(path))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for path in (c, d):
        assert run(capsys, *RKKY_BASE, "--r-min", "1", "--r-max", "8", "--steps", "40", "--out", str(path))[0] == 0
    assert c.read_bytes() == d.read_bytes()


def test_simulate_json_bit_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(capsys, "simulate", "--sites", "6", "--jk", "0.2", "--format", "json", "--out", str(path))[0] == 0
    assert a.read_bytes() == b.read_bytes()
