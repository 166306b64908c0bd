import argparse
import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relmon import corpus
from relmon.cli import COMMANDS, _UsageError, build_parser, main
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


def test_monad_enumerate_with_identities_named_after_objects(files, tmp_path, capsys):
    """A root whose domain names each identity after its object lists the
    same monads as one with distinct names."""
    arrow = {"objects": ["a", "b"],
             "morphisms": [{"name": "a", "dom": "a", "cod": "a"},
                           {"name": "b", "dom": "b", "cod": "b"},
                           {"name": "f", "dom": "a", "cod": "b"}],
             "identities": {"a": "a", "b": "b"},
             "composition": {"a;a": "a", "b;b": "b", "a;f": "f", "f;b": "f"}}
    save_json(arrow, tmp_path / "arrow.json")
    save_json(corpus.interval_category().to_dict(), tmp_path / "interval.json")
    save_json({"dom": "arrow.json", "cod": "interval.json", "on_objects": {"a": "0", "b": "1"},
               "on_morphisms": {"a": "id0", "b": "id1", "f": "u"}}, tmp_path / "j.json")
    save_json({"dom": "interval.json", "cod": "interval.json",
               "on_objects": {"0": "0", "1": "1"},
               "on_morphisms": {"id0": "id0", "id1": "id1", "u": "u"}}, tmp_path / "id.json")
    reports = []
    for root in ("id", "j"):
        report = tmp_path / f"{root}_monads.json"
        assert run(["monad", "enumerate", "--j", tmp_path / f"{root}.json",
                    "--report", report]) == 0
        reports.append(json.loads(report.read_text()))
    assert "Traceback" not in capsys.readouterr().err
    assert reports[0]["census"] == reports[1]["census"] == {"count": 2}


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


def test_monadic_audit_with_co_is_refused_before_loading(files, monkeypatch, capsys):
    """--audit with --co is a usage error (exit 3) found before any input is
    loaded or resolved: under a budget of 1, which the resolution exceeds
    (exit 4), and with paths that name no file."""
    monkeypatch.setenv("RELMON_BUDGET", "1")
    want = "relmon: usage error: --audit with --co is not supported; audit the dual inputs directly\n"
    for j, r in ((files / "id_bz2.json", files / "id_bz2.json"), (files / "nope.json", files / "nope.json")):
        assert run(["monadic", "--j", j, "--r", r, "--co", "--audit"]) == 3
        assert capsys.readouterr().err == want
    assert run(["monadic", "--j", files / "id_bz2.json", "--r", files / "id_bz2.json", "--co"]) == 4


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
        _parse_failure(capsys, tmp_path / "rep.json", f"{root / rel}: {table}")


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
    _parse_failure(capsys, tmp_path / "rep.json", f"{root / rel}: unit")


@pytest.mark.parametrize("field, value", [("on_objects", []), ("on_morphisms", {"e": 1})])
def test_functor_map_of_wrong_shape_is_parse_error(files, tmp_path, capsys, field, value):
    doc = json.loads((files / "id_bz2.json").read_text())
    doc["dom"] = doc["cod"] = str(files / "bz2.json")
    doc[field] = value
    bad = tmp_path / "functor_bad_map.json"
    save_json(doc, bad)
    assert run(["validate", bad, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: {field}")


@pytest.mark.parametrize("field, value", [("objects", "*"), ("identities", ["i"]),
                                          ("composition", [])])
def test_category_field_of_wrong_type_is_parse_error(files, tmp_path, capsys, field, value):
    doc = json.loads((files / "bz2.json").read_text())
    doc[field] = value
    bad = tmp_path / "bad_field.json"
    save_json(doc, bad)
    assert run(["validate", bad, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: {field}")


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
    _parse_failure(capsys, tmp_path / "rep.json", f"{path}: elements")


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


@pytest.mark.parametrize("where", ["missing/r.json", ".", "bz2.json/r.json"])
def test_unwritable_report_is_input_error(files, capsys, where):
    """A report under a missing directory, a directory, or a path under a
    file: exit 3 with one line on stderr."""
    code = run(["density", "--j", files / "point_bz2.json", "--report", files / where])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and "cannot write report" in err


def test_unwritable_report_on_input_error_keeps_both_messages(files, capsys):
    code = run(["density", "--j", files / "nope.json", "--report", files / "missing" / "r.json"])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 2 and "nope.json" in err[0] and "cannot write report" in err[1]


def test_corpus_that_is_a_file_is_input_error(files, capsys):
    assert run(["suite", "--corpus", files / "bz2.json"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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


# ---------------------------------------------------------------------------
# malformed references and counts


def standalone_docs(files) -> dict:
    """A valid functor, monad and adjunction document, referring to their
    categories and functors by absolute path."""
    functor = json.loads((files / "point_bz2.json").read_text())
    functor["dom"], functor["cod"] = str(files / "terminal.json"), str(files / "bz2.json")
    point, ident = str(files / "point_bz2.json"), str(files / "id_bz2.json")
    return {
        "functor": functor,
        "monad": {"j": point, "t": point, "unit": {"*": "e"}, "ext": {"*|*|e": "e", "*|*|s": "s"}},
        "adjunction": {"j": ident, "l": ident, "r": ident, "sharp": {"*|*|e": "e", "*|*|s": "s"}},
    }


@pytest.mark.parametrize("kind, key, value", [("functor", "dom", 7), ("monad", "j", 5),
                                              ("monad", "j", {}), ("adjunction", "l", ["x"])])
def test_malformed_reference_is_parse_error(files, tmp_path, capsys, kind, key, value):
    doc = standalone_docs(files)[kind]
    doc[key] = value
    bad = tmp_path / f"{kind}.json"
    save_json(doc, bad)
    assert run(["validate", bad, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: {key}")


def saved_bundle(tmp_path):
    """A builtin instance with monads and adjunctions saved as a bundle, and its manifest."""
    inst = next(i for i in corpus.builtin_corpus() if i.monads and i.adjunctions)
    root = tmp_path / "inst"
    corpus.save_instance(inst, root)
    return root, json.loads((root / "manifest.json").read_text())


@pytest.mark.parametrize("schema", [7, None, "x", True, 1.0, 2])
def test_bundle_manifest_schema_other_than_1_is_parse_error(tmp_path, capsys, schema):
    root, manifest = saved_bundle(tmp_path)
    manifest["schema"] = schema
    save_json(manifest, root / "manifest.json")
    assert run(["validate", root, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{root / 'manifest.json'}: schema")


def test_validate_summary_follows_redirected_stdout(files):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["validate", files / "bz2.json"]) == 0
    assert out.getvalue().startswith("validate: PASS\n")


@pytest.mark.parametrize("damage, where", [
    (lambda m: m["functors"]["j"].update(path=7), "functors.j"),
    (lambda m: m["functors"].update(j="fun_j.json"), "functors.j"),
    (lambda m: m["functors"]["j"].update(dom=["x"]), "functors.j.dom"),
    (lambda m: m.update(monads=["mon.json"]), "monads"),
    (lambda m: m["roles"].update(candidates=["nope"]), "roles"),
    (lambda m: m.update(name=["x"]), "name"),
])
def test_bundle_manifest_with_malformed_reference_is_parse_error(tmp_path, capsys, damage, where):
    root, manifest = saved_bundle(tmp_path)
    damage(manifest)
    save_json(manifest, root / "manifest.json")
    assert run(["validate", root, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{root / 'manifest.json'}: {where}")


@pytest.mark.parametrize("table, key, value", [("monads", "j", 5), ("monads", "j", {}),
                                               ("adjunctions", "l", ["x"])])
def test_bundle_document_with_malformed_reference_is_parse_error(tmp_path, capsys, table, key, value):
    root, manifest = saved_bundle(tmp_path)
    rel = manifest[table][sorted(manifest[table])[0]]
    doc = json.loads((root / rel).read_text())
    doc[key] = value
    save_json(doc, root / rel)
    assert run(["validate", root, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{root / rel}: {key}")


# ---------------------------------------------------------------------------
# every parse error names its file and field


def test_category_file_without_objects_is_named_by_its_path(files, tmp_path, capsys):
    cat = json.loads((files / "bz2.json").read_text())
    del cat["objects"]
    save_json(cat, tmp_path / "cat.json")
    save_json({"dom": "cat.json", "cod": str(files / "bz2.json"),
               "on_objects": {"*": "*"}, "on_morphisms": {"e": "e", "s": "s"}}, tmp_path / "f.json")
    assert run(["density", "--j", tmp_path / "f.json", "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", tmp_path / "cat.json")
    assert json.loads((tmp_path / "rep.json").read_text())["error"].endswith(
        ": missing field 'objects'")


def test_inline_category_without_objects_is_named_by_its_field(files, tmp_path, capsys):
    doc = standalone_docs(files)["functor"]
    doc["dom"] = {k: v for k, v in json.loads((files / "terminal.json").read_text()).items()
                  if k != "objects"}
    bad = tmp_path / "functor.json"
    save_json(doc, bad)
    assert run(["validate", bad, "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: dom")


def test_bundle_category_without_identities_is_named_by_its_path(tmp_path, capsys):
    root, _ = saved_bundle(tmp_path)
    cat = json.loads((root / "cat_E.json").read_text())
    del cat["identities"]
    save_json(cat, root / "cat_E.json")
    assert run(["validate", root, "--report", tmp_path / "rep.json"]) == 3
    error = json.loads((tmp_path / "rep.json").read_text())["error"]
    assert error == f"parse error at {root / 'cat_E.json'}: missing field 'identities'"


def test_suite_over_bundles_names_the_bundle_at_fault(tmp_path, capsys):
    instances = {i.name: i for i in corpus.builtin_corpus()}
    for name in ("terminal", "point_bz2"):
        corpus.save_instance(instances[name], tmp_path / "corpus" / name)
    bad = tmp_path / "corpus" / "point_bz2" / "manifest.json"
    manifest = json.loads(bad.read_text())
    manifest["functors"]["j"]["path"] = 7
    save_json(manifest, bad)
    assert run(["suite", "--corpus", tmp_path / "corpus", "--cap", "1", "--shapes", "1",
                "--report", tmp_path / "rep.json"]) == 3
    _parse_failure(capsys, tmp_path / "rep.json", f"{bad}: functors.j")


@pytest.mark.parametrize("flag, value", [("--cap", "-1"), ("--shapes", "-3")])
def test_negative_cap_or_shapes_is_usage_error(files, capsys, flag, value):
    assert run(["monadic", "--j", files / "point_bz2.json", "--r", files / "id_bz2.json",
                "--audit", flag, value]) == 3
    assert run(["suite", flag, value]) == 3
    assert capsys.readouterr().err.count("must be a non-negative integer") == 2


# ---------------------------------------------------------------------------
# exit-code contract under damaged documents

DROP = object()
REPLACEMENTS = [DROP, 7, "x", "", None, True, [], ["x"], {}, {"x": "y"}]


def value_paths(doc, prefix=()):
    """The path (keys and indices) to every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def inline_docs(files) -> dict:
    """Valid documents with every category and functor written inline, so
    that a damaged field can sit at any depth."""
    cat = lambda name: json.loads((files / name).read_text())  # noqa: E731
    point = {"dom": cat("terminal.json"), "cod": cat("bz2.json"),
             "on_objects": {"*": "*"}, "on_morphisms": {"id": "e"}}
    ident = {"dom": cat("bz2.json"), "cod": cat("bz2.json"),
             "on_objects": {"*": "*"}, "on_morphisms": {"e": "e", "s": "s"}}
    docs = standalone_docs(files)
    return {"category": cat("bz2.json"), "functor": point,
            "monad": dict(docs["monad"], j=point, t=point),
            "adjunction": dict(docs["adjunction"], j=ident, l=ident, r=ident)}


def test_document_validates_each_distinct_category_once(files, tmp_path, monkeypatch):
    """A monad or adjunction document validates each distinct category it
    reaches once, inline or through a functor file, and each reference
    keeps its own name; a second document validates its categories again."""
    from relmon import cli
    calls = []
    original = cli.validate_category

    def validate(raw, **kwargs):
        calls.append(kwargs["where"])
        return original(raw, **kwargs)

    monkeypatch.setattr(cli, "validate_category", validate)
    docs = inline_docs(files)
    for kind in ("monad", "adjunction"):
        save_json(docs[kind], tmp_path / f"{kind}.json")
    T = cli.load_monad_file(tmp_path / "monad.json")
    assert len(calls) == 2                      # Terminal and BZ2, each named twice
    assert [C.name for C in (T.j.dom, T.j.cod, T.t.dom, T.t.cod)] == ["j.dom", "j.cod", "t.dom", "t.cod"]
    assert T.j.dom == T.t.dom and T.j.cod == T.t.cod
    calls.clear()
    cli.load_adjunction_file(tmp_path / "adjunction.json")
    assert len(calls) == 1                      # BZ2, named six times
    calls.clear()
    for _ in range(2):
        T = cli.load_monad_file(files / "monad_pt_bz2.json")
    assert len(calls) == 4                      # terminal.json and bz2.json, per document
    assert [C.name for C in (T.j.dom, T.j.cod, T.t.dom, T.t.cod)] == ["dom", "cod", "dom", "cod"]


def damage(data, doc):
    """doc with one value, drawn from data, dropped or replaced by another type."""
    path = data.draw(st.sampled_from(list(value_paths(doc))))
    replacement = data.draw(st.sampled_from(REPLACEMENTS))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def run_damaged(argv, tmp_path, capsys, damaged) -> int:
    """Run argv and check that it printed no traceback and that a parse
    error, if any, is located in the file damaged; returns the exit code."""
    report = tmp_path / "rep.json"
    report.unlink(missing_ok=True)
    code = run(argv + ["--report", report])
    assert "Traceback" not in capsys.readouterr().err
    error = json.loads(report.read_text()).get("error", "") if report.exists() else ""
    if error.startswith("parse error at "):
        assert error.startswith(f"parse error at {damaged}"), (argv, error)
    return code


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_documents_keep_the_exit_code_contract(files, tmp_path, capsys, data):
    """relmon validate on a document with one field dropped or of another
    type exits 0, 1 or 3, and prints no traceback."""
    kind = data.draw(st.sampled_from(["category", "functor", "monad", "adjunction"]))
    bad = tmp_path / f"damaged_{kind}.json"
    save_json(damage(data, inline_docs(files)[kind]), bad)
    assert run_damaged(["validate", bad], tmp_path, capsys, bad) in (0, 1, 3)


def subcommands(files, bad) -> dict:
    """The runs of every subcommand that reads a damaged document of each kind."""
    point, ident = files / "point_bz2.json", files / "id_bz2.json"
    return {
        "functor": [["density", "--j", bad], ["adjoint", "--j", bad, "--r", ident],
                    ["adjoint", "--j", point, "--r", bad], ["monadic", "--j", point, "--r", bad],
                    ["composite", "--j", bad, "--rprime", ident, "--r", ident],
                    ["monad", "enumerate", "--j", bad]],
        "monad": [["algebras", "--monad", bad], ["monad", "validate", bad]],
        "adjunction": [["paste", "--inner", bad, "--outer", bad, "--direction", "paste"],
                       ["paste", "--inner", bad, "--outer", bad, "--direction", "unpaste"]],
    }


@FUZZ
@given(data=st.data())
def test_damaged_documents_keep_the_exit_code_contract_in_every_subcommand(
        files, tmp_path, capsys, data):
    """Every subcommand that reads a damaged document exits in 0-4, prints
    no traceback, and locates a parse error in the damaged file."""
    kind = data.draw(st.sampled_from(["functor", "monad", "adjunction"]))
    bad = tmp_path / f"damaged_{kind}.json"
    save_json(damage(data, inline_docs(files)[kind]), bad)
    for argv in subcommands(files, bad)[kind]:
        assert run_damaged(argv, tmp_path, capsys, bad) in range(5)


@pytest.fixture(scope="module")
def point_bz2_bundle(tmp_path_factory):
    """The point_bz2 instance saved as a bundle: {file name: document}."""
    inst = next(i for i in corpus.builtin_corpus() if i.name == "point_bz2")
    root = tmp_path_factory.mktemp("point_bz2")
    corpus.save_instance(inst, root)
    return {p.name: json.loads(p.read_text()) for p in sorted(root.iterdir())}


@FUZZ
@given(data=st.data())
def test_damaged_bundles_keep_the_exit_code_contract(point_bz2_bundle, tmp_path, capsys, data):
    """validate and suite --corpus on a bundle with one value of one file
    (the manifest or any document) dropped or of another type exit in 0-4,
    print no traceback, and locate a parse error in the damaged file."""
    name = data.draw(st.sampled_from(sorted(point_bz2_bundle)))
    shutil.rmtree(tmp_path / "corpus", ignore_errors=True)
    root = tmp_path / "corpus" / "point_bz2"
    root.mkdir(parents=True)
    for file_name, doc in point_bz2_bundle.items():
        save_json(damage(data, copy.deepcopy(doc)) if file_name == name else doc, root / file_name)
    for argv in (["validate", root],
                 ["suite", "--corpus", root.parent, "--cap", "1", "--shapes", "1"]):
        assert run_damaged(argv, tmp_path, capsys, root / name) in range(5)


def unreadable(doc: dict, how: str) -> str:
    """doc's JSON text with one more field that json.loads cannot read:
    nested 100,000 deep, or an integer of 5,000 digits."""
    value = "[" * 100_000 + "]" * 100_000 if how == "deep" else "7" * 5_000
    return json.dumps(doc)[:-1] + f', "pad": {value}}}'


@pytest.mark.parametrize("how", ["deep", "long_integer"])
def test_unreadable_json_is_parse_error(files, tmp_path, capsys, how):
    """A document json.loads gives up on (RecursionError, or ValueError for
    too many digits) is an input error naming the file, not a crash."""
    for kind, doc in inline_docs(files).items():
        bad = tmp_path / f"unreadable_{kind}.json"
        bad.write_text(unreadable(doc, how))
        argvs = [["validate", bad]] + ([["density", "--j", bad]] if kind == "functor" else [])
        for argv in argvs:
            assert run_damaged(argv, tmp_path, capsys, bad) == 3
            error = json.loads((tmp_path / "rep.json").read_text())["error"]
            assert error.startswith(f"parse error at {bad}: JSON "), error


@pytest.mark.parametrize("how", ["deep", "long_integer"])
def test_unreadable_json_in_a_bundle_is_parse_error(point_bz2_bundle, tmp_path, capsys, how):
    """The same for any one file of a bundle, the manifest included, under
    validate and suite --corpus."""
    for name in sorted(point_bz2_bundle):
        shutil.rmtree(tmp_path / "corpus", ignore_errors=True)
        root = tmp_path / "corpus" / "point_bz2"
        root.mkdir(parents=True)
        for file_name, doc in point_bz2_bundle.items():
            save_json(doc, root / file_name)
        (root / name).write_text(unreadable(point_bz2_bundle[name], how))
        for argv in (["validate", root],
                     ["suite", "--corpus", root.parent, "--cap", "1", "--shapes", "1"]):
            assert run_damaged(argv, tmp_path, capsys, root / name) == 3
            error = json.loads((tmp_path / "rep.json").read_text())["error"]
            assert error.startswith(f"parse error at {root / name}: JSON "), error


# ---------------------------------------------------------------------------
# a call builds only the subparser its first argument names

NAMES = [name for name, _, _, _ in COMMANDS]
# a valid argv for each subcommand, every option given
REPRESENTATIVE = {
    "validate": ["validate", "f.json", "--report", "r.json"],
    "density": ["density", "--j", "j.json"],
    "adjoint": ["adjoint", "--r", "r.json", "--j", "j.json"],
    "monad": ["monad", "enumerate", "--j", "j.json", "--report", "r.json"],
    "algebras": ["algebras", "--monad", "t.json"],
    "monadic": ["monadic", "--j", "j.json", "--r", "r.json", "--nonstrict", "--co", "--audit",
                "--shapes", "2", "--cap", "1"],
    "paste": ["paste", "--inner", "a.json", "--outer", "b.json", "--direction", "unpaste"],
    "composite": ["composite", "--j", "j.json", "--rprime", "q.json", "--r", "r.json", "--strict"],
    "suite": ["suite", "--corpus", "c", "--shapes", "1", "--cap", "0"],
}
# usage errors of each subcommand: an unknown option, a missing required
# argument, and whatever else its arguments can get wrong
USAGE_ERRORS = {
    "validate": [["validate"], ["validate", "a", "b"]],
    "density": [["density"], ["density", "--j"]],
    "adjoint": [["adjoint", "--j", "j.json"]],
    "monad": [["monad"], ["monad", "bogus"]],
    "algebras": [["algebras"]],
    "monadic": [["monadic", "--j", "j", "--r", "r", "--strict", "--nonstrict"],
                ["monadic", "--j", "j", "--r", "r", "--cap", "-1"], ["monadic", "--r", "r"]],
    "paste": [["paste", "--inner", "a", "--outer", "b", "--direction", "sideways"]],
    "composite": [["composite", "--j", "j", "--r", "r"],
                  ["composite", "--j", "j", "--rprime", "q", "--r", "r", "--nonstrict", "--strict"]],
    "suite": [["suite", "--shapes", "x"], ["suite", "--cap", "-1", "--shapes", "-3"]],
}


def subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def usage_error(parser, argv) -> str:
    with pytest.raises(_UsageError) as caught:
        parser.parse_args(argv)
    return str(caught.value)


@pytest.fixture
def add_parser_calls(monkeypatch):
    """The names passed to argparse's add_parser from now on."""
    calls = []
    original = argparse._SubParsersAction.add_parser

    def add_parser(self, name, **kwargs):
        calls.append(name)
        return original(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_one_subparser_helps_parses_and_fails_as_the_full_parser(name):
    full, one = build_parser(), build_parser(name)
    assert subparser(one, name).format_help() == subparser(full, name).format_help()
    argv = REPRESENTATIVE[name]
    assert one.parse_args(argv) == full.parse_args(argv)
    for argv in USAGE_ERRORS[name] + [[name, "--no-such-option"]]:
        assert usage_error(one, argv) == usage_error(full, argv), argv


@pytest.mark.parametrize("name", NAMES)
def test_usage_errors_keep_their_message_and_exit_3(name, capsys, add_parser_calls):
    for argv in USAGE_ERRORS[name] + [[name, "--no-such-option"]]:
        want = f"relmon: usage error: {usage_error(build_parser(), argv)}\n"
        add_parser_calls.clear()
        assert main(argv) == 3
        assert capsys.readouterr().err == want
        assert add_parser_calls == [name]


def test_a_run_builds_only_its_subparser(files, add_parser_calls):
    assert run(["density", "--j", files / "point_bz2.json"]) == 0
    assert add_parser_calls == ["density"]


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--report", "r.json", "monad"]])
def test_argv_without_a_command_first_builds_every_subparser(argv, capsys, add_parser_calls):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert add_parser_calls == NAMES
    if argv == ["-h"]:
        assert code == 0 and all(f"\n    {name} " in out for name in NAMES)
    else:
        assert code == 3 and err.startswith("relmon: usage error: ")
    if argv == ["bogus"]:
        assert all(f"'{name}'" in err for name in NAMES)


# each subcommand's usage line, at 200 columns
USAGE = {
    "validate": "[-h] [--report REPORT] file",
    "density": "[-h] --j J [--report REPORT]",
    "adjoint": "[-h] --j J --r R [--report REPORT]",
    "monad": "[-h] [--j J] [--report REPORT] {validate,enumerate} [file]",
    "algebras": "[-h] --monad MONAD [--report REPORT]",
    "monadic": "[-h] --j J --r R [--strict | --nonstrict] [--co] [--audit] [--shapes SHAPES] "
               "[--cap CAP] [--report REPORT]",
    "paste": "[-h] --inner INNER --outer OUTER --direction {paste,unpaste} [--report REPORT]",
    "composite": "[-h] --j J --rprime RPRIME --r R [--strict | --nonstrict] [--report REPORT]",
    "suite": "[-h] [--corpus CORPUS] [--shapes SHAPES] [--cap CAP] [--report REPORT]",
}


@pytest.mark.parametrize("name", NAMES)
def test_subcommand_usage_is_pinned(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    assert subparser(build_parser(name), name).format_usage() == f"usage: relmon {name} {USAGE[name]}\n"
    assert build_parser().format_usage() == (
        "usage: relmon [-h] {validate,density,adjoint,monad,algebras,monadic,paste,composite,suite} ...\n")
