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


def _parse_failure(capsys, report, where):
    """The last run reported a parse error at `where` and printed no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err and "parse error at" in err
    error = json.loads(report.read_text())["error"]
    assert error.startswith(f"parse error at {where}:"), error


def test_validate_non_object_document_is_parse_error(tmp_path, capsys):
    for text in ("42", "[1, 2]", '"objects"', "null"):
        doc = tmp_path / "scalar.json"
        doc.write_text(text)
        assert run(["validate", doc, "--report", tmp_path / "rep.json"]) == 3
        _parse_failure(capsys, tmp_path / "rep.json", str(doc))


def test_monad_ext_key_without_three_parts_is_parse_error(files, tmp_path, capsys):
    bad = tmp_path / "monad_short_key.json"
    save_json({"j": str(files / "point_bz2.json"), "t": str(files / "point_bz2.json"),
               "unit": {"*": "e"}, "ext": {"*|*": "e", "*|*|s": "s"}}, bad)
    for argv in (["monad", "validate", bad], ["validate", bad]):
        assert run(argv + ["--report", tmp_path / "rep.json"]) == 3
        _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: ext")


def test_adjunction_sharp_key_without_three_parts_is_parse_error(files, tmp_path, capsys):
    bad = tmp_path / "adj_short_key.json"
    ref = str(files / "id_bz2.json")
    save_json({"j": ref, "l": ref, "r": ref, "sharp": {"*|*": "e", "*|*|e|s": "s"}}, bad)
    assert run(["validate", bad, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: sharp")


def test_instance_with_bad_table_keys_is_parse_error(tmp_path, capsys):
    inst = next(i for i in corpus.builtin_corpus() if i.monads and i.adjunctions)
    for table in ("ext", "sharp"):
        root = tmp_path / table
        corpus.save_instance(inst, root)
        manifest = json.loads((root / "manifest.json").read_text())
        kind = "monads" if table == "ext" else "adjunctions"
        rel = manifest[kind][sorted(manifest[kind])[0]]
        doc = json.loads((root / rel).read_text())
        doc[table]["*|*"] = next(iter(doc[table].values()))
        save_json(doc, root / rel)
        assert run(["validate", root, "--report", tmp_path / "rep.json"]) == 3
        _parse_failure(capsys, tmp_path / "rep.json", f"{rel}: {table}")


def test_monad_unit_of_wrong_shape_is_parse_error(files, tmp_path, capsys):
    bad = tmp_path / "monad_list_unit.json"
    save_json({"j": str(files / "point_bz2.json"), "t": str(files / "point_bz2.json"),
               "unit": ["e"], "ext": {"*|*|e": "e", "*|*|s": "s"}}, bad)
    for argv in (["monad", "validate", bad], ["validate", bad]):
        assert run(argv + ["--report", tmp_path / "rep.json"]) == 3
        _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: unit")
    # the same document inside an instance bundle
    inst = next(i for i in corpus.builtin_corpus() if i.monads)
    root = tmp_path / "inst"
    corpus.save_instance(inst, root)
    rel = next(iter(json.loads((root / "manifest.json").read_text())["monads"].values()))
    doc = json.loads((root / rel).read_text())
    doc["unit"] = [next(iter(doc["unit"].values()))]
    save_json(doc, root / rel)
    assert run(["validate", root, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{rel}: unit")


@pytest.mark.parametrize("field, value", [("on_objects", []), ("on_morphisms", {"e": 1})])
def test_functor_map_of_wrong_shape_is_parse_error(files, tmp_path, capsys, field, value):
    doc = json.loads((files / "id_bz2.json").read_text())
    doc["dom"] = doc["cod"] = str(files / "bz2.json")
    doc[field] = value
    bad = tmp_path / "functor_bad_map.json"
    save_json(doc, bad)
    assert run(["validate", bad, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", field)


@pytest.mark.parametrize("field, value", [("objects", "*"), ("identities", ["i"]),
                                          ("composition", [])])
def test_category_field_of_wrong_type_is_parse_error(files, tmp_path, capsys, field, value):
    doc = json.loads((files / "bz2.json").read_text())
    doc[field] = value
    bad = tmp_path / "bad_field.json"
    save_json(doc, bad)
    assert run(["validate", bad, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", field)


@pytest.mark.parametrize("elements", [["*|*"], {"*|*": "e"}])
def test_instance_with_malformed_distributor_elements_is_parse_error(tmp_path, capsys, elements):
    inst = next(i for i in corpus.builtin_corpus() if i.distributors)
    corpus.save_instance(inst, tmp_path / "inst")
    manifest = json.loads((tmp_path / "inst" / "manifest.json").read_text())
    path = tmp_path / "inst" / next(iter(manifest["distributors"].values()))["path"]
    doc = json.loads(path.read_text())
    doc["elements"] = elements
    save_json(doc, path)
    assert run(["validate", tmp_path / "inst", "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", "elements")


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
