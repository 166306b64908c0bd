import json
import subprocess
import sys
from pathlib import Path

import pytest

from relmon import corpus
from relmon.cli import main
from relmon.corpus import save_json


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Standalone CLI documents shared by the matrix tests."""

    root = tmp_path_factory.mktemp("cli")
    bz2 = corpus.bz2_category()
    disc2 = corpus.disc2_category()
    term = corpus.terminal_category()
    empty = corpus.empty_category()

    save_json(bz2.to_dict(), root / "bz2.json")
    save_json(disc2.to_dict(), root / "disc2.json")
    save_json(term.to_dict(), root / "terminal.json")
    save_json(empty.to_dict(), root / "empty.json")

    save_json({"dom": "bz2.json", "cod": "bz2.json",
               "on_objects": {"*": "*"}, "on_morphisms": {"e": "e", "s": "s"}},
              root / "id_bz2.json")
    save_json({"dom": "terminal.json", "cod": "bz2.json",
               "on_objects": {"*": "*"}, "on_morphisms": {"id": "e"}},
              root / "point_bz2.json")
    save_json({"dom": "empty.json", "cod": "disc2.json",
               "on_objects": {}, "on_morphisms": {}},
              root / "empty_root_disc2.json")
    save_json({"dom": "disc2.json", "cod": "disc2.json",
               "on_objects": {"0": "0", "1": "0"},
               "on_morphisms": {"id0": "id0", "id1": "id0"}},
              root / "const_disc2.json")
    save_json({"dom": "disc2.json", "cod": "disc2.json",
               "on_objects": {"0": "0", "1": "1"},
               "on_morphisms": {"id0": "id0", "id1": "id1"}},
              root / "id_disc2.json")
    save_json({"dom": "terminal.json", "cod": "disc2.json",
               "on_objects": {"*": "0"}, "on_morphisms": {"id": "id0"}},
              root / "point_disc2.json")
    save_json({"j": "point_bz2.json", "t": "point_bz2.json",
               "unit": {"*": "e"}, "ext": {"*|*|e": "e", "*|*|s": "s"}},
              root / "monad_pt_bz2.json")
    save_json({"j": "point_bz2.json", "t": "point_bz2.json",
               "unit": {"*": "s"}, "ext": {"*|*|e": "e", "*|*|s": "e"}},
              root / "monad_bad.json")
    return root


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# exit-code matrix


def test_validate_category_pass(files):
    assert run(["validate", files / "bz2.json"]) == 0


def test_validate_category_fail(files, tmp_path):
    doc = json.loads((files / "bz2.json").read_text())
    doc["composition"]["e;s"] = "e"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["validate", bad]) == 1


def test_validate_parse_error(files, tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert run(["validate", bad]) == 3


def test_missing_file_is_input_error(files):
    assert run(["density", "--j", files / "nope.json"]) == 3


def test_density_exit_codes(files):
    assert run(["density", "--j", files / "point_bz2.json"]) == 0
    assert run(["density", "--j", files / "point_disc2.json"]) == 1


def test_adjoint_exit_codes(files):
    assert run(["adjoint", "--j", files / "point_bz2.json", "--r", files / "id_bz2.json"]) == 0


def test_monad_validate_and_enumerate(files):
    assert run(["monad", "validate", files / "monad_pt_bz2.json"]) == 0
    assert run(["monad", "validate", files / "monad_bad.json"]) == 1
    assert run(["monad", "enumerate", "--j", files / "point_bz2.json"]) == 0


def test_algebras(files):
    assert run(["algebras", "--monad", files / "monad_pt_bz2.json"]) == 0


def test_monadic_pass_and_fail(files):
    assert run(["monadic", "--j", files / "id_bz2.json", "--r", files / "id_bz2.json",
                "--strict"]) == 0
    # spec example: empty root with a non-iso candidate fails with
    # "comparison not iso"
    assert run(["monadic", "--j", files / "empty_root_disc2.json",
                "--r", files / "const_disc2.json"]) == 1
    assert run(["monadic", "--j", files / "empty_root_disc2.json",
                "--r", files / "id_disc2.json"]) == 0


def test_monadic_audit_inconclusive_exit_2(files):
    # the density-necessity exhibit: negative verdict, creations all pass,
    # so the audit flags its bound
    code = run(["monadic", "--j", files / "empty_root_disc2.json",
                "--r", files / "point_disc2.json", "--audit", "--shapes", "2", "--cap", "1"])
    assert code == 2


def test_budget_exceeded_exit_4(files, monkeypatch):
    monkeypatch.setenv("RELMON_BUDGET", "1")
    assert run(["monad", "enumerate", "--j", files / "point_bz2.json"]) == 4


def test_usage_error_exit_3():
    assert run(["monad", "validate"]) == 3


def test_strict_and_nonstrict_together_is_usage_error(files, capsys):
    assert run(["monadic", "--j", files / "id_bz2.json", "--r", files / "id_bz2.json",
                "--strict", "--nonstrict"]) == 3
    assert run(["composite", "--j", files / "empty_root_disc2.json",
                "--rprime", files / "id_disc2.json", "--r", files / "id_disc2.json",
                "--nonstrict", "--strict"]) == 3
    assert "not allowed with" in capsys.readouterr().err


def test_composite_cli(files):
    assert run(["composite", "--j", files / "empty_root_disc2.json",
                "--rprime", files / "id_disc2.json",
                "--r", files / "id_disc2.json", "--strict"]) == 0


def test_paste_cli(files, tmp_path):
    # identity adjunction pasted with itself
    sharp = {"*|*|e": "e", "*|*|s": "s"}
    save_json({"j": "id_bz2.json", "l": "id_bz2.json", "r": "id_bz2.json",
               "sharp": sharp}, files / "adj_id_bz2.json")
    assert run(["paste", "--inner", files / "adj_id_bz2.json",
                "--outer", files / "adj_id_bz2.json", "--direction", "paste"]) == 0
    assert run(["paste", "--inner", files / "adj_id_bz2.json",
                "--outer", files / "adj_id_bz2.json", "--direction", "unpaste"]) == 0


# ---------------------------------------------------------------------------
# reports and determinism


def test_report_written_even_on_failure(files, tmp_path):
    out = tmp_path / "rep.json"
    code = run(["monadic", "--j", files / "empty_root_disc2.json",
                "--r", files / "const_disc2.json", "--report", out])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["verdict"] is False
    assert "comparison not invertible" in doc["witnesses"]


def test_report_written_on_input_error(files, tmp_path):
    out = tmp_path / "rep.json"
    code = run(["density", "--j", files / "nope.json", "--report", out])
    assert code == 3
    doc = json.loads(out.read_text())
    assert "error" in doc


def test_monadic_report_determinism(files, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["monadic", "--j", files / "point_bz2.json", "--r", files / "id_bz2.json",
            "--audit", "--shapes", "2", "--cap", "1"]
    assert run(argv + ["--report", a]) == 0
    assert run(argv + ["--report", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_report_determinism_small(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["suite", "--shapes", "1", "--cap", "1"]
    assert run(argv + ["--report", a]) == 0
    assert run(argv + ["--report", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema"] == 1 and doc["verdict"] is True


def test_console_entry_point(files):
    result = subprocess.run(
        [sys.executable, "-m", "relmon.cli", "density", "--j", str(files / "point_bz2.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "density: PASS" in result.stdout
