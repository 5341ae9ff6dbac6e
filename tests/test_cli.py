import json
import math
import re
from pathlib import Path

import pytest

from momentforge import qseries
from momentforge.catalog import TABLE, measure_from_json, resolve
from momentforge.cli import main
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
    measure = measure_from_json(json.loads(out))
    assert measure.total_mass == pytest.approx(1.242062, abs=1e-6)


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
    data = json.loads(out)
    assert data["density"] == "gamma"
    dens = measure_from_json(data)
    assert dens.density(1.0) > 0


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
    ["hermite-scan", "--tstep", "nan"],
    ["moments", "nu:0.5:0.5", "--n-max", "-2"],
    ["moments", "gamma:nan:1"],
    ["moments", "gamma:inf:1"],
    ["moments", "qbeta:0.5:0.25:0.5:-1"],
])
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
    data = json.loads(out)
    assert data["density"] == density_id
    original = resolve(object_id).measure()
    rebuilt = measure_from_json(data)
    assert rebuilt.to_json_dict() == data
    for x in (0.1, 0.5, 0.9):
        assert float(rebuilt.density(x)) == float(original.density(x))


def test_density_json_defaults_c_to_one():
    for data in ({"density": "gamma", "params": {"a": 1.5}},
                 {"density": "beta", "params": {"a": 1.0, "b": 2.0}}):
        assert measure_from_json(data).to_json_dict()["params"]["c"] == 1.0


@pytest.mark.parametrize("density_id", ["nosuch", "nu", "ratio",
                                        "kappa:gamma", "kappa:qratio"])
def test_density_json_rejects_non_density_ids(density_id):
    data = {"density": density_id,
            "params": {"a": 0.5, "b": 0.25, "q": 0.5}}
    with pytest.raises(DomainError):
        measure_from_json(data)


def test_readme_lists_every_catalog_id():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Catalog ids:")[1].split("\n\n")[0]
    listed = re.findall(r"`([a-z]+(?::[a-z]+)*)`", paragraph)
    assert listed == [":".join((head,) + names)
                      for head, (names, _) in TABLE.items()]
