import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import momentforge
from momentforge import cli, qseries, verify
from momentforge.catalog import TABLE, resolve
from momentforge.cli import main
from momentforge.hermite import positivity_scan
from momentforge.errors import DomainError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_hankel_passes(capsys):
    code, out, _ = run(capsys, "verify", "hankel")
    assert code == 0
    assert out.strip().endswith("passed 23/23")
    assert "FAIL" not in out


def test_verify_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "hankel")
    _, second, _ = run(capsys, "verify", "hankel")
    assert first == second


def test_moments_qbeta(capsys):
    code, out, _ = run(capsys, "moments", "qbeta:0.5:0.25:0.5:1",
                       "--n-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    n1 = float(lines[2].split(",")[1])
    assert n1 == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_moments_json_output(capsys):
    code, out, _ = run(capsys, "moments", "gamma:1:1", "--n-max", "4",
                       "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["moments"][3] == pytest.approx(6.0)


def test_mellin_gamma_example(capsys):
    code, out, _ = run(capsys, "mellin", "gamma:1:2", "--z", "3")
    assert code == 0
    assert float(out) == pytest.approx(36.0, rel=1e-12)


def test_mellin_complex(capsys):
    code, out, _ = run(capsys, "mellin", "vclognormal:0.5:1",
                       "--z", "1+1j")
    assert code == 0
    re, im = (float(v) for v in out.strip().split(","))
    assert math.isfinite(re) and math.isfinite(im)


def test_atoms_json_roundtrip(capsys):
    code, out, _ = run(capsys, "atoms", "nu:0.5:0.5")
    assert code == 0
    data = json.loads(out)
    assert data == qseries.nu_a(0.5, 0.5).to_json_dict()
    assert math.fsum(wt for _, wt in data["atoms"]) == pytest.approx(
        1.242062, abs=1e-6)


def test_atoms_csv(capsys):
    code, out, _ = run(capsys, "atoms", "nu:0.5:0.5", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "location,weight"
    loc, wt = (float(v) for v in lines[1].split(","))
    assert loc == pytest.approx(math.log(2.0))
    assert wt == pytest.approx(1.0)


def test_density_json_dump(capsys):
    code, out, _ = run(capsys, "atoms", "gamma:1.5:1")
    assert code == 0
    assert json.loads(out) == {"density": "gamma",
                               "params": {"a": 1.5, "c": 1.0}}


def test_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "moments", "nosuchthing:1")
    assert code == 2
    assert "error" in err


def test_wrong_arity_is_usage_error(capsys):
    code, _, _ = run(capsys, "moments", "gamma:1")
    assert code == 2


def test_table_has_residual_column(capsys):
    code, out, _ = run(capsys, "table", "qbeta:0.5:0.25:0.5:1",
                       "--n-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,moment,mellin,residual"
    assert all(float(line.split(",")[3]) < 1e-10 for line in lines[1:])


def test_table_without_mellin_has_moment_column(capsys):
    code, out, _ = run(capsys, "table", "ratio:1:2")
    assert code == 0
    assert out == run(capsys, "moments", "ratio:1:2")[1].replace(
        "n,value", "n,moment")


def test_hermite_scan_csv(capsys):
    code, out, _ = run(capsys, "hermite-scan", "--tmin", "-0.5",
                       "--tmax", "0.5", "--tstep", "0.5",
                       "--xmin", "-2", "--xmax", "2", "--xstep", "1",
                       "--tol", "1e-10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,G,tail_bound"
    assert len(lines) == 1 + 3 * 5
    for line in lines[1:]:
        t, x, g, tail = (float(v) for v in line.split(","))
        assert g - tail > 0
        assert tail <= 1e-10 or t == 0.0


def test_hermite_scan_rows_are_four_fmt_fields(capsys):
    # each row is t, x, G and tail_bound, each as _fmt prints it
    argv = ["hermite-scan", "--tmin=-0.75", "--tmax=0.75", "--tstep=0.25",
            "--xmin=-1.3", "--xmax=1.3", "--xstep=0.65", "--tol=1e-10"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = positivity_scan(cli._grid(-0.75, 0.75, 0.25),
                             cli._grid(-1.3, 1.3, 0.65), tol=1e-10)
    expected = [",".join(map(cli._fmt, (g.t, g.x, g.value, g.tail_bound)))
                for g in report.points]
    assert out.splitlines()[1:] == expected
    assert len(expected) == 7 * 5


def test_hermite_scan_one_point_is_the_point_given(capsys):
    # a multi-point grid rounds to 12 decimals; a single point is not
    # rounded, so x = 1e-300 is evaluated and printed, not x = 0
    code, out, _ = run(capsys, "hermite-scan", "--tmin=-0.5", "--tmax=-0.5",
                       "--xmin=1e-300", "--xmax=1e-300")
    assert code == 0
    t, x, g, _ = out.strip().splitlines()[1].split(",")
    assert (float(t), float(x)) == (-0.5, 1e-300)
    assert float(g) == momentforge.generating_G(-0.5, 1e-300).value


def test_hermite_scan_rejects_t_outside(capsys):
    code, _, err = run(capsys, "hermite-scan", "--tmin", "-2.0",
                       "--tmax", "0.0", "--tstep", "1.0")
    assert code == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "hankel", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().strip().endswith("passed 23/23")


def test_failing_command_still_writes_its_out_file(tmp_path, capsys):
    # residuals of about 1e-15 fail a tolerance of 1e-300
    argv = ["verify", "bernstein-rep", "--tol", "1e-300"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    path = tmp_path / "report.txt"
    code, printed, _ = run(capsys, *argv, "--out", str(path))
    assert (code, printed) == (1, "")
    assert path.read_bytes() == out.encode()


def test_suite_names_are_the_report_order():
    assert verify.SUITE_NAMES == ("hankel", "bernstein-rep", "qseries",
                                  "semigroup", "hermite")


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


def test_pochhammer_at_one_is_the_factorial_sequence():
    # the hankel suite's factorial cases are (1)_n = n!, bit for bit,
    # since lgamma(1) == 0.0; 170! is the last one binary64 holds
    seq = verify._poch_seq(1.0)
    assert [seq.log(n) for n in range(200)] == [math.lgamma(n + 1.0)
                                                for n in range(200)]
    assert seq.values(170) == [math.exp(math.lgamma(n + 1.0))
                               for n in range(171)]


def test_a_key_error_inside_a_command_is_not_a_usage_error(capsys,
                                                           monkeypatch):
    # a KeyError from a bug propagates; only the package's own input
    # errors become one "error:" line and exit 2
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setitem(cli._DISPATCH, "atoms", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["atoms", "gamma:1:2"])
    assert capsys.readouterr().err == ""


def test_tol_overrides_every_check_of_a_suite():
    default = verify.run_suite("hankel")
    overridden = verify.run_suite("hankel", tol=0.5)
    assert ([(r.suite, r.name, r.residual) for r in overridden]
            == [(r.suite, r.name, r.residual) for r in default])
    assert {r.tolerance for r in overridden} == {0.5}


def test_moments_bernstein_with_params(capsys):
    code, out, _ = run(capsys, "moments", "affine:1", "--n-max", "3",
                       "--param", "alpha=1", "--param", "beta=1")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    # s_n = (2)_n = (n+1)!
    assert float(rows[3].split(",")[1]) == pytest.approx(24.0)


def test_resolve_rejects_garbage():
    with pytest.raises(DomainError):
        resolve("gamma:abc:1")


@pytest.mark.parametrize("argv", [
    ["moments", "affine:1", "--param", "alpha=abc"],
    ["moments", "linear", "--param", "alhpa=2", "--n-max", "2"],
    ["moments", "gamma:1:2", "--param", "c=-1"],
    ["moments", "gamma:1:2", "--param", "zzz=5"],
    ["hermite-scan", "--tstep", "nan"],
    ["hermite-scan", "--xmin=-1e308", "--xmax=1e308", "--xstep=1e-300"],
    ["moments", "nu:0.5:0.5", "--n-max", "-2"],
    ["moments", "gamma:nan:1"],
    ["moments", "gamma:inf:1"],
    ["moments", "qbeta:0.5:0.25:0.5:-1"],
    ["hermite-scan", "--tol", "nan"],
    ["hermite-scan", "--tol", "inf"],
    ["verify", "hankel", "--tol", "inf"],
    ["verify", "hankel", "--tol", "nan"],
    ["verify", "hankel", "--tol", "-1"],
    ["atoms", "qbeta:0.99:0.5:0.5:1"],
    ["moments", "linear", "--param", "alpha=0"],
    ["moments", "linear", "--param", "alpha=1", "--param", "alpha=3",
     "--n-max", "2"],
    # grids of 2e10 and 1e300 points, refused before a list is built
    ["hermite-scan", "--xstep", "1e-9"],
    ["hermite-scan", "--tmin=-0.5", "--tmax=0.5", "--tstep=1e-300"],
])
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["hermite-scan", "--xstep", "1e-9"],
    ["hermite-scan", "--tmin=-0.5", "--tmax=0.5", "--tstep=1e-300"],
])
def test_a_scan_grid_past_the_point_limit_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    assert run(capsys, *argv)[0] == 2
    assert time.perf_counter() - start < 1.0


def test_sigmaq_first_moment_near_one(capsys):
    # (1 - b)/(1 - a) = 20; a fixed K = 200 printed 2.8e8
    code, out, _ = run(capsys, "moments", "sigmaq:0.95:0:0.95",
                       "--n-max", "2")
    assert code == 0
    first = float(out.strip().splitlines()[2].split(",")[1])
    assert first == pytest.approx(20.0, rel=1e-9)


def test_sigmaq_unbounded_tail_is_usage_error(capsys):
    code, out, err = run(capsys, "moments", "sigmaq:0.99:0.5:0.99")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_hp_moments_are_the_series_coefficients(capsys):
    code, out, _ = run(capsys, "moments", "hp:0.5:0.5", "--n-max", "60")
    assert code == 0
    values = [float(line.split(",")[1])
              for line in out.strip().splitlines()[1:]]
    assert values == list(qseries.hp_coefficients(0.5, 0.5, 60).coefficients)


def test_hp_moments_build_the_series_once(capsys, monkeypatch):
    calls = []
    build = qseries.hp_coefficients

    def counted(p, q, K):
        calls.append(K)
        return build(p, q, K)

    monkeypatch.setattr(qseries, "hp_coefficients", counted)
    code, out, _ = run(capsys, "moments", "hp:0.3:0.8", "--n-max", "57")
    assert code == 0
    monkeypatch.undo()
    values = [float(line.split(",")[1])
              for line in out.strip().splitlines()[1:]]
    # the coefficient of the series built for each n alone, bit for bit
    assert values == [build(0.3, 0.8, n).coefficients[n]
                      for n in range(58)]
    # one series, as long as the orders asked for
    assert calls == [57]


@pytest.mark.parametrize("argv", [
    ["mellin", "gamma:1:1", "--z", "200"],
    ["moments", "gamma:1:1", "--n-max", "200"],
    ["mellin", "vclognormal:0.5:1", "--z", "60"],
    ["mellin", "qbeta:0.5:0.25:0.5:1000", "--z", "-0.99"],
    # moment products, whose exp leaves binary64
    ["moments", "linear", "--n-max", "200"],
    ["table", "linear", "--n-max", "200"],
    ["moments", "powertower", "--n-max", "400"],
    ["moments", "hp:0.5:0.99", "--n-max", "400"],
    # ids whose (a; q)_inf underflows to 0
    ["atoms", "qbeta:0.999:0.001:0.999:1"],
    ["mellin", "qbeta:0.999:0.001:0.999:1", "--z", "1"],
    ["moments", "sigmaq:0.999:0.001:0.999"],
    # finite logs whose exponential underflows to 0
    ["moments", "qbeta:0.5:0.25:0.999:1000", "--n-max", "3"],
    ["atoms", "qbeta:0.5:0.25:0.999:3"],
    ["table", "qbeta:0.5:0.25:0.999:1000", "--n-max", "3"],
    ["mellin", "qbeta:0.5:0.25:0.5:2000", "--z", "60"],
    # sums over atoms past binary64, which printed inf or nan
    ["mellin", "nu:0.5:0.5", "--z", "800"],
    ["moments", "nu:0.5:0.5", "--n-max", "400"],
    ["table", "nu:0.5:0.5", "--n-max", "400"],
    ["mellin", "sigmaq:0.5:0.25:0.5", "--z", "1e300"],
    # Gamma and Beta moments past binary64, which printed 1
    ["moments", "gamma:1e300:1", "--n-max", "3"],
    ["moments", "beta:1:1e300:1", "--n-max", "3"],
])
def test_mellin_past_binary64_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_qbeta_moments_need_no_underflowing_pochhammer(capsys):
    # the closed form sums logs, so it prints where (a; q)_inf underflows
    code, out, _ = run(capsys, "moments", "qbeta:0.999:0.001:0.999:1",
                       "--n-max", "3")
    assert code == 0
    assert float(out.splitlines()[2].split(",")[1]) == pytest.approx(
        0.001 / 0.999, rel=1e-12)


@pytest.mark.parametrize("z, code", [("nan", 2), ("inf", 2), ("1e308", 1)])
def test_mellin_refuses_a_z_that_is_not_a_number(capsys, z, code):
    # a non-finite z is a usage error; at 1e308 log-gamma overflows to inf
    # before exp does, which is a value past binary64
    got, out, err = run(capsys, "mellin", "gamma:1:1", "--z", z)
    assert got == code
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_without_scipy():
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from momentforge.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(momentforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cli(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, check=True,
                              env=env).stdout

    assert cli("verify", "semigroup").strip().endswith("passed 5/5")
    re_part, im_part = cli("mellin", "gamma:1:2", "--z", "2+1j").split(",")
    assert float(re_part) == pytest.approx(-0.866071944006, rel=1e-11)
    assert float(im_part) == pytest.approx(2.578740014668, rel=1e-11)


def test_sigmaq_moments_build_the_measure_once(capsys, monkeypatch):
    calls = []
    build = qseries.sigma_abgamma

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(qseries, "sigma_abgamma", counted)
    code, out, _ = run(capsys, "moments", "sigmaq:0.5:0.25:0.5",
                       "--n-max", "40")
    assert code == 0
    assert len(out.strip().splitlines()) == 42
    assert len(calls) == 1


@pytest.mark.parametrize("object_id, density_id", [
    ("gamma:1.5:1", "gamma"), ("beta:1:2:1", "beta"),
    ("vclognormal:0.5:1", "vclognormal"), ("affine:2", "kappa:affine"),
    ("linear", "kappa:linear"), ("ratio:1:2", "kappa:ratio"),
    ("mobius", "kappa:mobius"),
])
def test_density_json_roundtrip(capsys, object_id, density_id):
    code, out, _ = run(capsys, "atoms", object_id)
    assert code == 0
    # the params are the id's parameters, by the names of its table row
    head, *parts = object_id.split(":")
    assert json.loads(out) == {
        "density": density_id,
        "params": dict(zip(TABLE[head][0], map(float, parts)))}


def test_readme_lists_every_catalog_id():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Catalog ids:")[1].split("\n\n")[0]
    listed = re.findall(r"`([a-z]+(?::[a-z]+)*)`", paragraph)
    assert listed == [":".join((head,) + names)
                      for head, (names, _) in TABLE.items()]


def test_qratio_near_one_is_usage_error():
    # the lattice of kappa (a near 1) would need tens of millions of atoms;
    # a fresh process under a timeout and a 2 GiB cap on its address
    # space, so that a cut that does not stop cannot run on
    src = os.path.dirname(os.path.dirname(momentforge.__file__))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-m", "momentforge.cli", "atoms",
                           "qratio:0.9999999:0.5:0.5"],
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=cap, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:")


@pytest.mark.parametrize("object_id", ["qratio:0.9999999:0.999999:0.5",
                                       "qratio:0.99999:0.9999:0.999"])
def test_qratio_near_one_moments_are_the_closed_form_products(capsys,
                                                              object_id):
    # moments read the closed form only, so no lattice is cut
    code, out, _ = run(capsys, "moments", object_id, "--n-max", "3")
    assert code == 0
    a, b, q = map(float, object_id.split(":")[1:])
    product = 1.0
    for row in out.strip().splitlines()[1:]:
        n, value = row.split(",")
        assert float(value) == pytest.approx(product, rel=1e-14)
        s = 1.0 + int(n)
        product *= (1.0 - a * q ** s) / (1.0 - b * q ** s)


@pytest.mark.parametrize("argv", [
    ["atoms", "ratio:1:2", "--param", "alpha=5"],
    ["mellin", "gamma:1:2", "--z", "2", "--param", "alpha=1"],
])
def test_atoms_and_mellin_take_no_param(capsys, argv):
    # kappa does not depend on (alpha, beta), and no Mellin evaluator
    # reads a param: argparse refuses the option
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_main_in_one_process_matches_fresh_processes(capsys):
    # main builds its parser once per process: calls one after another,
    # usage errors among them, print and exit as fresh processes do, and
    # no option of one call carries into the next
    argvs = [["moments", "beta:1:2.5:0.5", "--n-max", "3"],
             ["verify", "nosuch"],
             ["mellin", "gamma:1:2", "--z", "2+1j", "--output", "json"],
             ["moments", "beta:1:2.5:0.5"],
             ["moments", "beta:1:2.5:0.5", "--n-max", "x"],
             ["hermite-scan", "--tmin=-0.5", "--tmax=0.5", "--tstep=0.5",
              "--xmin=-1", "--xmax=1", "--xstep=1"],
             ["mellin", "gamma:1:2", "--z", "2+1j"]]
    src = os.path.dirname(os.path.dirname(momentforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "momentforge.cli"]
                               + argv, capture_output=True, text=True,
                               env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
