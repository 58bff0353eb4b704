import json
from importlib.resources import files

import numpy as np
import pytest

from maskdispatch.cli import main
from maskdispatch.casefile import (
    CaseFileError, load_case, save_case, system_to_case, case_to_system,
)
from maskdispatch.market import gen_synthetic
from maskdispatch import cli
from maskdispatch.lp import NumericalBreakdown
from maskdispatch.masking import KeyGenerationFailed
from maskdispatch.protocol import ProtocolViolation

THREEBUS = str(files("maskdispatch").joinpath("cases/threebus.case"))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_clear_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["solve", THREEBUS, "--mode", "clear", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["schema"] == 1
    assert rep["status"] == "optimal"
    assert rep["objective"] == pytest.approx(1330.0)
    assert rep["lmp"] == [[15.0, 15.5, 16.0]]
    assert rep["flows"] == [[10.0, 90.0, 100.0]]
    assert rep["generators"]["U1"]["total"] == pytest.approx(110.0)
    assert rep["loads"]["L1"]["total"] == pytest.approx(190.0)
    assert "comm" not in rep


def test_solve_masked_matches_clear(tmp_path):
    clear_out = tmp_path / "clear.json"
    masked_out = tmp_path / "masked.json"
    assert main(["solve", THREEBUS, "--out", str(clear_out)]) == 0
    assert main(["solve", THREEBUS, "--mode", "masked", "--seed", "42",
                 "--out", str(masked_out)]) == 0
    clear = read_json(clear_out)
    masked = read_json(masked_out)
    assert masked["objective"] == pytest.approx(clear["objective"], abs=1e-6)
    assert masked["lmp"] == clear["lmp"]
    assert masked["generators"] == clear["generators"]
    assert masked["comm"]["agent_to_entities"]["count"] == 14


def test_solve_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.case")
    assert main(["solve", missing]) == 1
    assert "nope.case" in capsys.readouterr().err


def test_report_deterministic_modulo_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", THREEBUS, "--mode", "masked", "--seed", "5", "--out", str(a)])
    main(["solve", THREEBUS, "--mode", "masked", "--seed", "5", "--out", str(b)])
    ra, rb = read_json(a), read_json(b)
    ra.pop("timing")
    rb.pop("timing")
    assert ra == rb


def test_compare_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", THREEBUS, "--seeds", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    assert header[:5] == ["seed", "obj_clear", "obj_masked",
                          "max_dispatch_diff", "max_lmp_diff"]
    for row in lines[1:]:
        cells = row.split(",")
        assert abs(float(cells[1]) - float(cells[2])) <= 1e-6
        assert float(cells[3]) <= 1e-6
        assert float(cells[4]) <= 1e-6
        assert int(cells[7]) == 285
        assert int(cells[8]) == 14


def test_compare_rejects_zero_seeds():
    assert main(["compare", THREEBUS, "--seeds", "0"]) == 1


def test_gen_roundtrip_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.case", tmp_path / "b.case"
    argv = ["gen", "--buses", "3", "--gencos", "2", "--lses", "1",
            "--entity-size", "1", "--hours", "1", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    system = load_case(out1)
    assert len(system.generators) == 2
    report = tmp_path / "rep.json"
    assert main(["solve", str(out1), "--mode", "masked", "--out", str(report)]) == 0


def test_gen_invalid_counts(tmp_path):
    assert main(["gen", "--buses", "0", "--gencos", "1", "--lses", "1",
                 "--out", str(tmp_path / "x.case")]) == 1


def test_gen_bigger_case_solves_both_modes(tmp_path):
    case = tmp_path / "big.case"
    assert main(["gen", "--buses", "10", "--gencos", "3", "--lses", "2",
                 "--entity-size", "2", "--hours", "2", "--seed", "3",
                 "--out", str(case)]) == 0
    rep = tmp_path / "r.json"
    assert main(["solve", str(case), "--mode", "clear", "--out", str(rep)]) == 0
    assert main(["solve", str(case), "--mode", "masked", "--out", str(rep)]) == 0


def test_audit_output(capsys):
    assert main(["audit", THREEBUS, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "GENCO1 (GENCO) linear: 6 eq / 9 unk -> UNDERDETERMINED" in out
    assert "bilinear: 66 eq / 51 unk" in out
    assert "LSE1" in out


def test_casefile_roundtrip():
    system = gen_synthetic(4, 2, 2, 2, 2, seed=13)
    doc = system_to_case(system)
    again = case_to_system(doc)
    assert again == system


def test_casefile_errors_name_fields(tmp_path):
    doc = system_to_case(gen_synthetic(3, 1, 1, 1, 1, seed=1))
    del doc["generators"][0]["segments"][0]["price"]
    bad = tmp_path / "bad.case"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CaseFileError) as err:
        load_case(bad)
    assert "$.generators[0].segments[0].price" in str(err.value)

    doc2 = system_to_case(gen_synthetic(3, 1, 1, 1, 1, seed=1))
    doc2["meta"]["reference_bus"] = "99"
    bad2 = tmp_path / "bad2.case"
    bad2.write_text(json.dumps(doc2))
    with pytest.raises(CaseFileError):
        load_case(bad2)

    notjson = tmp_path / "notjson.case"
    notjson.write_text("{broken")
    with pytest.raises(CaseFileError):
        load_case(notjson)


def test_save_case_byte_stable(tmp_path):
    system = gen_synthetic(4, 1, 1, 1, 1, seed=2)
    p1, p2 = tmp_path / "one.case", tmp_path / "two.case"
    save_case(system, p1)
    save_case(system, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert load_case(p1) == system


def _threebus_doc():
    return read_json(THREEBUS)


def _set(path, value):
    def change(doc):
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
    return change


def _duplicate_generator_name(doc):
    doc["generators"][1]["name"] = doc["generators"][0]["name"]


BAD_DOCUMENTS = {
    "nan-price": _set(["generators", 0, "segments", 0, "price"], float("nan")),
    "inf-min": _set(["loads", 0, "segments", 0, "min"], float("-inf")),
    "nan-max": _set(["generators", 1, "segments", 1, "max"], float("nan")),
    "inf-ramp-up": _set(["generators", 0, "ramp_up"], float("inf")),
    "nan-ramp-down": _set(["generators", 0, "ramp_down"], float("nan")),
    "text-ramp-up": _set(["generators", 0, "ramp_up"], "fast"),
    "nan-reactance": _set(["lines", 0, "x"], float("nan")),
    "inf-capacity": _set(["lines", 1, "capacity"], float("inf")),
    "fractional-horizon": _set(["meta", "T"], 1.5),
    "duplicate-asset-name": _duplicate_generator_name,
}


def _solve_exit(tmp_path, capsys, doc, mode="clear"):
    case = tmp_path / "case.case"
    case.write_text(json.dumps(doc))
    code = main(["solve", str(case), "--mode", mode])
    err = capsys.readouterr().err
    return code, err


def _assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_bad_input_is_one_error_line(tmp_path, capsys, name):
    doc = _threebus_doc()
    BAD_DOCUMENTS[name](doc)
    code, err = _solve_exit(tmp_path, capsys, doc)
    assert code == 1
    _assert_one_error_line(err)


@pytest.mark.parametrize("mode", ["clear", "masked"])
def test_islanded_case_is_one_error_line(tmp_path, capsys, mode):
    doc = _threebus_doc()
    doc["lines"] = [ln for ln in doc["lines"] if "3" not in (ln["from"], ln["to"])]
    code, err = _solve_exit(tmp_path, capsys, doc, mode)
    assert code == 1
    _assert_one_error_line(err)
    assert "not connected" in err


def test_empty_market_is_one_error_line(tmp_path, capsys):
    doc = _threebus_doc()
    doc["loads"] = []
    code, err = _solve_exit(tmp_path, capsys, doc)
    assert code == 1
    _assert_one_error_line(err)



@pytest.mark.parametrize("error", [NumericalBreakdown, KeyGenerationFailed,
                                   ProtocolViolation])
def test_failed_round_exits_4(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("round could not finish")
    monkeypatch.setattr(cli, "run_market_round", fail)
    assert main(["solve", THREEBUS, "--mode", "masked"]) == 4
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv, env_seed", [
    ([], None),
    (["solve"], None),
    (["compare", THREEBUS, "--seeds", "x"], None),
    (["solve", THREEBUS, "--seed", "-1"], None),
    (["solve", THREEBUS], "-5"),
    (["solve", THREEBUS], "abc"),
], ids=["no-command", "solve-without-case", "text-seed-count",
        "negative-seed", "negative-env-seed", "text-env-seed"])
def test_usage_errors_exit_1(monkeypatch, capsys, argv, env_seed):
    if env_seed is None:
        monkeypatch.delenv("MASKDISPATCH_SEED", raising=False)
    else:
        monkeypatch.setenv("MASKDISPATCH_SEED", env_seed)
    assert main(argv) == 1
    _assert_one_error_line(capsys.readouterr().err)


def test_unbounded_masked_status_exits_4(tmp_path, capsys, monkeypatch):
    # the bundled simplex misreports this badly scaled masked LP as
    # unbounded; a dispatch LP is bounded, so that is a failed round
    monkeypatch.delenv("MASKDISPATCH_SEED", raising=False)
    doc = _threebus_doc()
    _set(["generators", 1, "segments", 2, "price"], 1e8)(doc)
    code, err = _solve_exit(tmp_path, capsys, doc, "masked")
    assert code == 4
    _assert_one_error_line(err)


def test_infeasible_clear_solve_names_family(tmp_path, capsys):
    doc = _threebus_doc()
    for line in doc["lines"]:
        line["capacity"] = 1.0
    code, err = _solve_exit(tmp_path, capsys, doc)
    assert code == 2
    _assert_one_error_line(err)
    assert "line capacity limits" in err
