import json
import math
import os
import time

import numpy as np
import pytest

import bhdensity as bh
from bhdensity import cli
from bhdensity.cli import main, parse_plane
from conftest import V9_GAP, W0_AREA


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out), "--deterministic"])
    return code, (json.loads(out.read_text()) if out.exists() else None), out


def test_section_w0(tmp_path):
    code, data, _ = run_cli(["section", "--body", "rotated-cross4", "--plane", "w0"], tmp_path)
    assert code == 0
    assert abs(data["area"] - W0_AREA) < 1e-12
    assert data["method"] == "exact-halfplane"
    assert len(data["vertices"]) == 8
    assert data["toolkit_version"] == bh.__version__
    assert data["config_echo"]["plane"] == "w0"


def test_section_euclid_pi(tmp_path):
    code, data, _ = run_cli(
        ["section", "--body", "euclid-n", "--n", "4", "--plane", "w0"], tmp_path
    )
    assert code == 0
    assert abs(data["area"] - math.pi) < 1e-6


def test_gap_v9(tmp_path):
    code, data, _ = run_cli(
        ["gap", "--body", "rotated-cross4", "--proj", "0,0,0,0", "--plane", "v9"], tmp_path
    )
    assert code == 0
    assert abs(data["gap"] - V9_GAP) < 1e-12


def test_density_subcommand(tmp_path):
    code, data, _ = run_cli(
        ["density", "--body", "rotated-cross4", "--bivector", "1,0,0,0,0,0"], tmp_path
    )
    assert code == 0
    assert abs(data["value"] - math.pi / W0_AREA) < 1e-12
    assert data["stderr"] is None


def test_probe_subcommand(tmp_path):
    code, data, _ = run_cli(
        ["probe", "--body", "rotated-cross4", "--trials", "200"], tmp_path
    )
    assert code == 0
    assert data["violations"] == 0
    assert "slack" in data["worst_trial"]


def test_certify_failure_exit_code(tmp_path):
    code, data, _ = run_cli(
        [
            "certify", "--body", "euclid-n", "--n", "4", "--box", "2", "--grid", "21",
            "--eps", "0.05", "--extra-planes", "4",
        ],
        tmp_path,
    )
    assert code == 2
    assert data["success"] is False
    assert data["failed_at"] == [0.0, 0.0, 0.0, 0.0]



def test_certify_exterior_failure(tmp_path, capsys):
    # the coordinate sections of |x1| + |x2| + 10|x3| + 10|x4| <= 1 have area 0.2, so the
    # exterior bound is 0.2 * R - 2 < 0
    body_file = tmp_path / "thin.json"
    body_file.write_text(json.dumps({"kind": "abs_sum", "functionals": np.diag([1.0, 1.0, 10.0, 10.0]).tolist()}))
    code, data, _ = run_cli(
        ["certify", "--body", str(body_file), "--box", "2", "--grid", "21",
         "--eps", "0.05", "--extra-planes", "4"],
        tmp_path,
    )
    assert code == 2
    assert data["success"] is False and data["reason"].startswith("exterior bound")
    assert data["max_gap"] == pytest.approx(0.2 * 2.0 - 2.0, abs=1e-12)
    assert "Traceback" not in capsys.readouterr().err


def test_certify_threshold_near_grid_minimum_stops(tmp_path):
    # above the family's least gap the bisection meets a failing corner (or its budget) quickly
    t0 = time.perf_counter()
    code, data, _ = run_cli(
        ["certify", "--body", "rotated-cross4", "--threshold", "0.02", "--box", "2", "--grid", "21",
         "--eps", "0.05", "--extra-planes", "4"],
        tmp_path,
    )
    assert code == 2
    assert data["success"] is False and data["reason"].startswith("bisection")
    assert data["max_gap"] <= 0.02
    assert time.perf_counter() - t0 < 60.0


def test_usage_error_exit_code(tmp_path):
    assert main(["section", "--body", "nonsense", "--plane", "w0"]) == 1
    assert main(["section", "--body", "rotated-cross4", "--plane", "zzz"]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["section", "--body", "rotated-cross4", "--plane", "w0"],
        ["density", "--body", "cross4", "--bivector", "1,0,0,0,0,0", "--codim2",
         "--mc-samples", "1000"],
        ["gap", "--body", "rotated-cross4", "--proj", "0,0,0,0", "--plane", "v9"],
        ["certify", "--body", "rotated-cross4", "--box", "2", "--grid", "21", "--eps", "0.1",
         "--extra-planes", "4"],
        ["certify", "--body", "euclid-n", "--n", "4", "--box", "2", "--grid", "21"],
        ["lemmas", "--eps-grid", "0.002,0.004,0.008,0.012,0.016,0.02"],
        ["probe", "--body", "rotated-cross4", "--trials", "20"],
    ],
    ids=["section", "density", "gap", "certify", "certify-fails", "lemmas", "probe"],
)
def test_thread_environment_variable_is_ignored(args, tmp_path, monkeypatch):
    # --threads is the one way to set the thread count; BHD_THREADS changes nothing
    reports = []
    for env in (None, "two"):
        if env is not None:
            monkeypatch.setenv("BHD_THREADS", env)
        out = tmp_path / f"{env}.out"
        code = main(args + ["--out", str(out), "--deterministic"])
        reports.append((code, out.read_bytes()))
    assert reports[0] == reports[1] and reports[0][0] in (0, 2)


@pytest.mark.parametrize(
    "content",
    ['{"kind": "euclidean"}', "[1, 2]", None, '{"kind": "complex_lp", "p": 2, "k": 2.5}'],
    ids=["missing-key", "not-an-object", "directory", "non-integral-k"],
)
def test_malformed_body_file_is_error(content, tmp_path, capsys):
    body_file = tmp_path / "body.json"
    if content is None:
        body_file.mkdir()
    else:
        body_file.write_text(content)
    assert main(["section", "--plane", "w0", "--body", str(body_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("error:", "usage error:")) and "Traceback" not in err


@pytest.mark.parametrize("proj", ["1,2,3", "1,2,3,4,5", "0,0,nan,0", "inf,0,0,0"])
def test_gap_proj_needs_four_finite_numbers(proj, capsys):
    assert main(["gap", "--body", "rotated-cross4", "--proj", proj, "--plane", "v9"]) == 1
    assert capsys.readouterr().err.startswith("usage error: --proj")


@pytest.mark.parametrize(
    "flag, word",
    [(["--box", "nan"], "box"), (["--box", "inf"], "box"), (["--extra-planes", "-3"], "extra_planes")],
    ids=["box-nan", "box-inf", "extra-planes"],
)
def test_certify_bad_box_or_plane_count_is_error(flag, word, capsys):
    assert main(["certify", "--body", "rotated-cross4", *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err


def test_threads_only_on_certify(capsys):
    assert main(["section", "--body", "rotated-cross4", "--plane", "w0", "--threads", "2"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_gap_below_dimension_four_is_error(capsys):
    assert main(["gap", "--body", "euclid-n", "--n", "3", "--proj", "0,0,0,0", "--plane", "w0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_nan_plane_epsilon_is_error(capsys):
    assert main(["section", "--body", "rotated-cross4", "--plane", "v1:nan"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad plane") and "epsilon must satisfy" in err


def test_codim2_zero_samples_is_error(capsys):
    args = ["density", "--body", "cross4", "--bivector", "1,0,0,0,0,0", "--codim2"]
    assert main(args + ["--mc-samples", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_codim2_below_one_point_per_shift_is_error(capsys):
    # 64 random shifts need at least 64 samples, one point each
    args = ["density", "--body", "euclid-n", "--bivector", "1,0,0,0,0,0", "--codim2"]
    assert main(args + ["--mc-samples", "63"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "64" in err and "Traceback" not in err
    assert main(args + ["--mc-samples", "64", "--out", os.devnull]) == 0


@pytest.mark.parametrize("p", ["nan", "inf"])
@pytest.mark.parametrize(
    "args",
    [
        ["section", "--plane", "w0"],
        ["probe", "--trials", "1"],
        ["density", "--bivector", "1,0,0,0,0,0"],
    ],
    ids=["section", "probe", "density"],
)
def test_non_finite_p_is_error(args, p, capsys):
    assert main([*args, "--body", "complex-lp", "--p", p, "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p must be a finite number >= 1") and "Traceback" not in err


def test_non_finite_p_in_body_file_is_error(tmp_path, capsys):
    # Python's json reads the NaN literal
    body_file = tmp_path / "body.json"
    body_file.write_text('{"kind": "complex_lp", "p": NaN, "k": 2}')
    assert main(["section", "--plane", "w0", "--body", str(body_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p must be a finite number >= 1") and "Traceback" not in err


def test_probe_zero_trials_is_error(capsys):
    for body in (["--body", "cross4"], ["--body", "complex-lp", "--p", "2", "--k", "3"]):
        assert main(["probe", *body, "--trials", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "trials" in err


@pytest.mark.parametrize(
    "args",
    [
        ["probe", "--body", "complex-lp", "--p", "2", "--k", "3", "--trials", "1",
         "--mc-samples", "0"],
        ["gap", "--body", "euclid-n", "--n", "0", "--proj", "0,0,0,0", "--plane", "w0"],
        ["section", "--body", "product-c-b", "--euclidean-dim", "0", "--plane", "w0"],
        ["section", "--body", "euclid-n", "--n", "4", "--plane", "w0", "--radial-n", "0"],
    ],
    ids=["mc-samples", "n", "euclidean-dim", "radial-n"],
)
def test_zero_is_not_unset(args, capsys):
    # an explicit 0 is refused, never replaced by the option's default
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_out_of_memory_is_error(monkeypatch, capsys):
    # an oversized flag ends with a message, not a traceback; nothing is allocated
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.31 TiB for an array")

    monkeypatch.setattr(cli, "certify_no_contraction", oversized)
    assert main(["certify", "--body", "rotated-cross4", "--grid", "1001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "7.31 TiB" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args, seed",
    [
        (["probe", "--body", "rotated-cross4", "--trials", "10", "--seed", "-1"], "-1"),
        (["probe", "--body", "cross4", "--trials", "10", "--seed", str(2**64)], str(2**64)),
        (["probe", "--body", "complex-lp", "--p", "3", "--k", "3", "--trials", "1",
          "--mc-samples", "100", "--seed", str(2**44)], str(2**44)),
        (["certify", "--body", "rotated-cross4", "--seed", "-1"], "-1"),
        (["density", "--body", "cross4", "--bivector", "1,0,0,0,0,0", "--codim2",
          "--mc-samples", "100", "--seed", "-1"], "-1"),
        (["section", "--body", "rotated-cross4", "--plane", "random:-3"], "-3"),
    ],
    ids=["probe-negative", "probe-2**64", "probe-dim6-derived", "certify", "density", "section"],
)
def test_seed_out_of_range_is_error(args, seed, capsys):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and seed in err and "Traceback" not in err


def test_reports_bitwise_identical(tmp_path):
    # identical config (including the output path) => identical bytes
    args = ["section", "--body", "rotated-cross4", "--plane", "v1:0.05"]
    _, _, out = run_cli(args, tmp_path, "same.json")
    first = out.read_bytes()
    _, _, out = run_cli(args, tmp_path, "same.json")
    assert out.read_bytes() == first


def test_deterministic_report_does_not_depend_on_out_path(tmp_path):
    args = ["probe", "--body", "rotated-cross4", "--trials", "50", "--seed", "3"]
    code, data, first = run_cli(args, tmp_path, "first.json")
    assert code == 0 and "out" not in data["config_echo"]
    code, _, second = run_cli(args, tmp_path, "second.json")
    assert code == 0 and second.read_bytes() == first.read_bytes()


def test_seventeen_digit_serialization(tmp_path):
    _, data, out = run_cli(["section", "--body", "rotated-cross4", "--plane", "w0"], tmp_path)
    text = out.read_text()
    token = format(data["area"], ".17g")
    assert token in text
    assert json.loads(text)["area"] == data["area"]  # round-trips exactly


def test_plane_mini_language():
    w0 = parse_plane("w0", 4)
    assert np.array_equal(w0.u, [1, 0, 0, 0])
    v5 = parse_plane("v5:0.1", 4)
    assert abs(v5.u[3] - 0.1 / math.sqrt(1.01)) < 1e-15
    r = parse_plane("random:7", 4)
    assert abs(np.dot(r.u, r.v)) < 1e-12
    raw = parse_plane("1,0,0,0, 1,1,0,0", 4)
    assert np.allclose(raw.u, [1, 0, 0, 0]) and np.allclose(raw.v, [0, 1, 0, 0], atol=1e-15)
    raw6 = parse_plane("1,0,0,0,0,0, 0,1,0,0,0,0", 6)
    assert raw6.n == 6


def test_body_json_file_ingestion(tmp_path):
    from bhdensity._jsonfmt import dumps

    body_file = tmp_path / "body.json"
    body_file.write_text(dumps(bh.body_to_dict(bh.make_rotated_cross_polytope())))
    code, data, _ = run_cli(["section", "--body", str(body_file), "--plane", "w0"], tmp_path)
    assert code == 0
    assert abs(data["area"] - W0_AREA) < 1e-12


def test_lemmas_csv(tmp_path):
    out = tmp_path / "lemmas.csv"
    code = main(["lemmas", "--eps-grid", "0.002,0.004,0.008,0.012,0.016,0.02", "--out", str(out), "--deterministic"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,eps,lower_bound,exact_area,fitted_c"
    assert len(lines) == 1 + 4 * 6
    first = lines[1].split(",")
    assert first[0] == "v1v2"
    assert abs(float(first[2]) - bh.lemma_lower_bound("v1v2", 0.002)) < 1e-15
    # swap-tilt families carry no closed-form bound column
    v5_row = next(l for l in lines if l.startswith("v5v6")).split(",")
    assert v5_row[2] == ""


@pytest.mark.parametrize("flag", [["--threads", "-1"]], ids=["flag"])
def test_negative_threads_is_error(flag, capsys):
    assert main(["certify", "--body", "rotated-cross4", *flag]) == 1
    assert capsys.readouterr().err == "error: threads must be >= 0\n"


def test_deterministic_certify_report_does_not_depend_on_threads(tmp_path):
    args = ["certify", "--body", "rotated-cross4", "--box", "2", "--grid", "21", "--eps", "0.1",
            "--extra-planes", "4"]
    reports = []
    for threads in ("1", "2"):
        code, _, out = run_cli(args + ["--threads", threads], tmp_path)
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
