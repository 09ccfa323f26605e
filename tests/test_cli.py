import copy
import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from domdimlab import homology as hml
from domdimlab import nakayama as nak
from domdimlab import quivalg as qa
from domdimlab import rigidity as rg
from domdimlab.cli import main
from domdimlab.exactmath import F2
from domdimlab.suites import SUITES, cyclic_series


@pytest.fixture()
def runner():
    return CliRunner()


def run_json(runner, args, expect_exit=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return json.loads(result.stdout) if result.stdout.strip().startswith("{") else None


def test_domdim_family(runner):
    doc = run_json(runner, ["nakayama", "domdim", "--cycle",
                            "--kupisch", "5,6,6,6,6", "--cutoff", "64"])
    assert doc["items"][0]["domdim"] == {"kind": "finite", "value": 8}
    assert doc["failures"] == []


def test_ok_command(runner):
    doc = run_json(runner, ["nakayama", "ok", "--k", "1", "--cycle", "--kupisch", "2,2"])
    item = doc["items"][0]
    assert item["o_k"] == 3
    assert len(item["witness"]) == 3


def test_rigid_command_with_omega_specs(runner):
    doc = run_json(runner, [
        "nakayama", "rigid", "--k", "2", "--cycle", "--kupisch", "5,6,6,6,6",
        "--module", "dual-regular", "--module", "omega:4:dual-regular"])
    assert doc["items"][0]["rigid"] is True


def test_ext_command(runner):
    doc = run_json(runner, ["nakayama", "ext", "--cycle", "--kupisch", "3,3",
                            "--module", "0,1", "--degree", "3"])
    dims = [it["dim"] for it in doc["items"]]
    assert dims == [0, 0, 1]


def test_info_line(runner):
    doc = run_json(runner, ["nakayama", "info", "--line", "--kupisch", "2,1"])
    item = doc["items"][0]
    assert item["selfinjective"] is False
    assert item["dimension"] == 3


def test_info_counts_indecomposables_without_listing_them(runner):
    # sum(c) modules M(i, k), counted off the Kupisch series: a series of
    # 10^12 allocates none of them, and small series count the list
    started = time.perf_counter()
    doc = run_json(runner, ["nakayama", "info", "--cycle", "--kupisch", str(10**12)])
    assert time.perf_counter() - started < 1
    assert doc["items"][0]["indecomposables"] == 10**12
    for orientation, kup in [(nak.CYCLE, (2, 2)), (nak.CYCLE, (3, 4, 4)), (nak.LINE, (3, 2, 1))]:
        doc = run_json(runner, ["nakayama", "info", f"--{orientation}", "--kupisch", ",".join(map(str, kup))])
        A = nak.validate(orientation, kup)
        assert doc["items"][0]["indecomposables"] == len(nak.indecomposables(A))


def test_usage_error_exit_2(runner):
    result = runner.invoke(main, ["nakayama", "domdim", "--cycle", "--kupisch", "2,4"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify", "--suite", "unknown"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["nakayama", "domdim", "--kupisch", "3,3"])
    assert result.exit_code == 2  # orientation flag missing


def test_quiver_resolve_fingerprints(runner):
    doc = run_json(runner, ["quiver", "resolve", "--preset", "hopf-a5-f2",
                            "--module", "simple", "--length", "4"])
    assert doc["items"][0]["syzygy_dims"] == [7, 9, 7, 9]
    doc = run_json(runner, ["quiver", "resolve", "--preset", "dihedral8-f2",
                            "--module", "simple", "--length", "4"])
    assert doc["items"][0]["syzygy_dims"][-1] == 17


def test_quiver_ext_command(runner):
    doc = run_json(runner, ["quiver", "ext", "--preset", "hopf-a5-f2",
                            "--module", "simple", "--degree", "2"])
    item = doc["items"][0]
    assert item["hom"] == 1
    assert item["degrees"][0] > 0  # the simple extends itself


def test_quiver_ideal_from_file(runner, tmp_path):
    path = tmp_path / "truncpoly4.json"
    qa.save_algebra(qa.preset("truncated-poly(4,Q)"), str(path))
    doc = run_json(runner, ["quiver", "ideal", "--algebra", str(path),
                            "--generators", "a0*a0"])
    item = doc["items"][0]
    assert item["dim_ext1_X_X"] > 0
    assert item["pass"] is True


def test_quiver_ideal_reads_no_file_generators(runner, tmp_path):
    # "generators" that do not generate A (the unit alone) change neither the
    # ideal closure nor Hom(X, A/X): the report is the one of the preset's file
    obj = qa.preset("truncated-poly(4,Q)").to_json()
    own, unit_only = tmp_path / "own.json", tmp_path / "unit-only.json"
    own.write_text(json.dumps(obj))
    unit_only.write_text(json.dumps({**obj, "generators": [obj["unit"]]}))
    for gen, hom in (("a0*a0", 2), ("a0*a0*a0", 1)):
        items = [run_json(runner, ["quiver", "ideal", "--algebra", str(path), "--generators", gen])
                 ["items"] for path in (own, unit_only)]
        assert items[0] == items[1]
        assert items[0][0]["dim_hom_X_AmodX"] == hom


def test_quiver_predicates(runner):
    doc = run_json(runner, ["quiver", "predicates", "--preset", "hopf-a5-f2",
                            "--cutoff", "8"])
    item = doc["items"][0]
    assert item["local"] is True
    assert item["selfinjective"] is True


def test_quiver_compile_and_domdim(runner, tmp_path):
    path = tmp_path / "nak.json"
    with open(path, "w") as fh:
        json.dump({"kind": "nakayama", "orientation": "cycle",
                   "kupisch": [2, 3]}, fh)
    doc = run_json(runner, ["quiver", "compile", "--algebra", str(path)])
    assert doc["items"][0]["dimension"] == 5
    doc = run_json(runner, ["quiver", "domdim", "--algebra", str(path),
                            "--cutoff", "16"])
    assert doc["items"][0]["domdim"] == {"kind": "finite", "value": 2}


def test_verify_main_cli(runner):
    doc = run_json(runner, ["nakayama", "verify-main", "--k", "1", "--cycle",
                            "--kupisch", "3,4,4", "--cutoff", "32"])
    assert doc["items"][0]["verdict"] == "holds"
    assert doc["items"][0]["gendo_provenance"] == "bimodule-test"
    # the hypothesis is always decided: there is no flag to assert it instead
    result = runner.invoke(main, ["nakayama", "verify-main", "--k", "1", "--cycle",
                                  "--kupisch", "3,4,4", "--assume-gendo"])
    assert result.exit_code == 2 and "--assume-gendo" in result.output


def test_report_determinism(runner, tmp_path):
    args = ["nakayama", "ok", "--k", "1", "--cycle", "--kupisch", "2,3",
            "--report", str(tmp_path / "a.json")]
    runner.invoke(main, args, catch_exceptions=False)
    first = (tmp_path / "a.json").read_bytes()
    args[-1] = str(tmp_path / "b.json")
    runner.invoke(main, args, catch_exceptions=False)
    second = (tmp_path / "b.json").read_bytes()
    assert first == second


# one small valid argument list per command
EVERY_COMMAND = {
    "nakayama info": ["nakayama", "info", "--cycle", "--kupisch", "3,4,4"],
    "nakayama ext": ["nakayama", "ext", "--cycle", "--kupisch", "3,3", "--module", "0,1",
                     "--degree", "3"],
    "nakayama domdim": ["nakayama", "domdim", "--cycle", "--kupisch", "2,3"],
    "nakayama rigid": ["nakayama", "rigid", "--k", "2", "--cycle", "--kupisch", "3,3",
                       "--module", "simple", "--module", "omega:3:simple"],
    "nakayama ok": ["nakayama", "ok", "--k", "1", "--cycle", "--kupisch", "2,2"],
    "nakayama verify-main": ["nakayama", "verify-main", "--k", "1", "--cycle", "--kupisch", "2,3"],
    "quiver compile": ["quiver", "compile", "--preset", "preproj-a2"],
    "quiver resolve": ["quiver", "resolve", "--preset", "preproj-a2", "--length", "2"],
    "quiver ext": ["quiver", "ext", "--preset", "preproj-a2", "--module", "simple", "--degree", "2"],
    "quiver domdim": ["quiver", "domdim", "--preset", "preproj-a2", "--cutoff", "8"],
    "quiver ideal": ["quiver", "ideal", "--preset", "truncated-poly(4,Q)", "--generators", "a0*a0"],
    "quiver predicates": ["quiver", "predicates", "--preset", "preproj-a2"],
    "verify": ["verify", "--suite", "paper-core"],
}


def test_every_command_is_listed():
    def names(group, prefix):
        for name, cmd in group.commands.items():
            if hasattr(cmd, "commands"):
                yield from names(cmd, prefix + name + " ")
            else:
                yield prefix + name
    assert sorted(names(main, "")) == sorted(EVERY_COMMAND)


@pytest.mark.parametrize("args", EVERY_COMMAND.values(),
                         ids=[name.replace(" ", "-") for name in EVERY_COMMAND])
def test_every_command_reports_through_one_runner(runner, tmp_path, args):
    report = tmp_path / "report.json"
    result = runner.invoke(main, args + ["--report", str(report)], catch_exceptions=False)
    assert report.read_bytes() == result.stdout_bytes
    doc = json.loads(result.stdout)
    failed = [it["name"] for it in doc["items"] if not it["pass"]]
    assert doc["failures"] == failed
    assert result.exit_code == (1 if failed else 0)
    assert result.stderr.startswith(f"[{doc['command']}] wall time ")
    csv = runner.invoke(main, args + ["--format", "csv"], catch_exceptions=False)
    assert csv.stdout.splitlines() == ["name,pass"] + [
        f"{it['name']},{str(it['pass']).lower()}" for it in doc["items"]]
    assert csv.exit_code == result.exit_code


def test_an_unwritable_report_path_exits_2(runner, tmp_path):
    for path in (tmp_path / "missing" / "report.json", tmp_path):  # no directory; a directory
        result = runner.invoke(main, EVERY_COMMAND["nakayama info"] + ["--report", str(path)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == "" and "cannot write the report" in result.stderr


def _fail(fn, field):
    def failing(*args):
        rep = fn(*args)
        setattr(rep, field, False)
        return rep
    return failing


def test_a_failing_item_exits_1(runner, monkeypatch):
    monkeypatch.setattr(rg, "verify_main_inequality", _fail(rg.verify_main_inequality, "verdict"))
    monkeypatch.setattr(hml, "check_ideal_rigidity", _fail(hml.check_ideal_rigidity, "holds"))
    monkeypatch.setitem(SUITES, "paper-core", lambda: ([{"name": "x", "pass": False},
                                                        {"name": "y", "pass": True}], ["x"]))
    for command, failures in (("nakayama verify-main", ["main-inequality"]),
                              ("quiver ideal", ["ideal-rigidity"]), ("verify", ["x"])):
        doc = run_json(runner, EVERY_COMMAND[command], expect_exit=1)
        assert doc["failures"] == failures
        result = runner.invoke(main, EVERY_COMMAND[command] + ["--format", "csv"])
        assert result.exit_code == 1 and f"{failures[0]},false" in result.stdout.splitlines()


PAPER_CORE_ITEMS = [
    *(f"family-domdim-n{n}" for n in range(2, 9)),
    "two-rigid-witness-n5",
    "symmetric-delta-3",
    "symmetric-delta-3-3",
    "symmetric-delta-4-4-4",
    "syzygy-fingerprint-hopf-a5-f2",
    "syzygy-fingerprint-dihedral8-f2",
    "syzygy-fingerprint-quaternion8-f2",
    "quaternion-omega4-selfiso",
    "mueller-end-3-3",
    "ideal-rigidity-truncated-poly",
    "ideal-rigidity-group-algebras",
    "enveloping-ext1-nonzero",
    "extsym-preproj-a2",
]


def test_verify_suite_jobs(runner):
    doc = run_json(runner, ["verify", "--suite", "paper-core"])
    assert doc["failures"] == []
    assert [it["name"] for it in doc["items"]] == PAPER_CORE_ITEMS


BAD_NUMBERS = {
    "cutoff-0": ["nakayama", "domdim", "--cycle", "--kupisch", "3,3",
                 "--cutoff", "0"],
    "cutoff-negative": ["nakayama", "domdim", "--cycle", "--kupisch", "3,3",
                        "--cutoff", "-1"],
    "quiver-cutoff-0": ["quiver", "domdim", "--preset", "preproj-a2",
                        "--cutoff", "0"],
    "degree-0": ["nakayama", "ext", "--cycle", "--kupisch", "3,3",
                 "--module", "0,1", "--degree", "0"],
    "quiver-degree-0": ["quiver", "ext", "--preset", "hopf-a5-f2",
                        "--module", "simple", "--degree", "0"],
    "length-0": ["quiver", "resolve", "--preset", "hopf-a5-f2",
                 "--length", "0"],
    "omega-negative": ["nakayama", "rigid", "--k", "1", "--cycle", "--kupisch",
                       "3,3", "--module", "omega:-1:simple"],
    "simple-vertex-negative": ["quiver", "resolve", "--preset", "hopf-a5-f2",
                               "--module", "simple:-1"],
    "projective-vertex-negative": ["quiver", "ext", "--preset", "preproj-a2",
                                   "--module", "projective:-1"],
    "ideal-zero-generator": ["quiver", "ideal", "--preset", "truncated-poly(4,Q)",
                             "--generators", "a0 - a0"],
}


def test_symmetry_decided_on_preproj_a2(runner):
    # (2,2) is selfinjective but not symmetric: 2 != 1 (mod 2)
    doc = run_json(runner, ["quiver", "predicates", "--preset", "preproj-a2"])
    item = doc["items"][0]
    assert item["symmetric"] is False
    assert item["selfinjective"] is True and item["gendo_symmetric"] is False
    result = runner.invoke(main, ["quiver", "ideal", "--preset", "preproj-a2",
                                  "--generators", "a1"])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "requires a symmetric algebra" in result.stderr


def test_failed_internal_recheck_exits_4(runner, monkeypatch):
    monkeypatch.setattr(rg, "is_k_rigid", lambda A, modules, k: False)
    result = runner.invoke(main, ["nakayama", "ok", "--k", "1", "--cycle", "--kupisch", "2,2"])
    assert result.exit_code == 4, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr.strip() == (
        "internal error: clique witness failed the direct rigidity re-check")


def test_huge_inputs_answer_at_once(runner):
    # sum(c) over the size limit is refused before the indecomposables are
    # listed; Omega is periodic, so a huge T or k costs one period
    started = time.perf_counter()
    result = runner.invoke(main, ["nakayama", "ok", "--k", "1", "--cycle", "--kupisch", "999999999999"])
    assert result.exit_code == 2 and "exceed the limit" in result.stderr
    huge = run_json(runner, ["nakayama", "rigid", "--k", str(10**12), "--cycle", "--kupisch", "3,3",
                             "--module", f"omega:{10**12}:simple"])
    small = run_json(runner, ["nakayama", "rigid", "--k", "4", "--cycle", "--kupisch", "3,3",
                              "--module", "simple"])
    # nested omega prefixes add up, read in one loop however deep
    nested = run_json(runner, ["nakayama", "rigid", "--k", "4", "--cycle", "--kupisch", "3,3",
                               "--module", "omega:1:" * 3000 + "simple"])
    assert time.perf_counter() - started < 1
    assert [(d["modules"], d["rigid"]) for d in (huge["items"][0], small["items"][0])] == [
        ([[0, 1]], False)] * 2
    assert nested["items"][0]["modules"] == [[0, 1]]  # Omega^3000 S_0 = S_0, period 4


def test_ext_degree_reads_one_chain_per_source_and_is_bounded(runner, monkeypatch):
    # every degree is read off one syzygy chain per source: the values are
    # the scalar dim_ext values, at the cost of one chain
    args = ["nakayama", "ext", "--cycle", "--kupisch", "3,4,4", "--module", "dual-regular",
            "--module", "0,2", "--degree", "12"]
    A = nak.validate(nak.CYCLE, (3, 4, 4))
    expected = [sum(nak.dim_ext(A, t, M, nak.NakModule(0, 2)) for M in nak.dual_regular(A))
                for t in range(1, 13)]
    calls = []
    monkeypatch.setattr(nak, "syzygy_chain",
                        lambda A, M, t, chain=nak.syzygy_chain: calls.append(t) or chain(A, M, t))
    assert [it["dim"] for it in run_json(runner, args)["items"]] == expected
    assert calls == [12] * 3  # one chain per summand of D(A)
    # a degree over SIZE_LIMIT is refused before any chain is built, and
    # the limit is read at call time
    calls.clear()
    started = time.perf_counter()
    for degree, limit in [(10**9, qa.SIZE_LIMIT), (qa.SIZE_LIMIT + 1, qa.SIZE_LIMIT), (13, 12)]:
        monkeypatch.setattr(qa, "SIZE_LIMIT", limit)
        result = runner.invoke(main, args[:-1] + [str(degree)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"--degree {degree} exceeds the limit {limit}" in result.stderr
    assert calls == [] and time.perf_counter() - started < 1
    monkeypatch.setattr(qa, "SIZE_LIMIT", 12)
    assert run_json(runner, args)["items"][-1]["degree"] == 12


@pytest.mark.parametrize("args", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_out_of_range_numbers_exit_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# module specs outside the grammar, and more than two modules for Ext
BAD_MODULE_SPECS = {
    "quiver-simplest": ["quiver", "resolve", "--preset", "preproj-a2", "--module", "simplest"],
    "quiver-projective-suffix": ["quiver", "resolve", "--preset", "preproj-a2",
                                 "--module", "projectiveXYZ"],
    "quiver-projective-no-vertex": ["quiver", "ext", "--preset", "preproj-a2",
                                    "--module", "projective"],
    "quiver-simple-empty-vertex": ["quiver", "resolve", "--preset", "preproj-a2",
                                   "--module", "simple:"],
    "quiver-ext-three-modules": ["quiver", "ext", "--preset", "preproj-a2", "--module",
                                 "simple:0", "--module", "garbage", "--module", "simple:1"],
    "nakayama-simplest": ["nakayama", "ext", "--cycle", "--kupisch", "3,3",
                          "--module", "simplest"],
    "nakayama-rigid-simplest": ["nakayama", "rigid", "--k", "1", "--cycle", "--kupisch", "3,3",
                                "--module", "simplest"],
    "nakayama-ext-three-modules": ["nakayama", "ext", "--cycle", "--kupisch", "3,3", "--module",
                                   "0,1", "--module", "garbage", "--module", "0,2"],
}


@pytest.mark.parametrize("args", BAD_MODULE_SPECS.values(), ids=BAD_MODULE_SPECS.keys())
def test_bad_module_specs_exit_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_module_specs_of_the_grammar_run(runner):
    doc = run_json(runner, ["quiver", "ext", "--preset", "preproj-a2", "--module", "projective:0",
                            "--module", "simple:1", "--degree", "2"])
    assert doc["items"][0]["degrees"] == [0, 0]  # a projective has no higher Ext
    doc = run_json(runner, ["quiver", "resolve", "--preset", "preproj-a2",
                            "--module", "simple:1", "--length", "2"])
    assert doc["items"][0]["module_dim"] == 1
    doc = run_json(runner, ["nakayama", "ext", "--cycle", "--kupisch", "3,3", "--module",
                            "simple:1", "--module", "simple", "--degree", "1"])
    assert [it["dim"] for it in doc["items"]] == [1]

OUT_OF_SCOPE_FILES = {
    "semisimple-domdim": ("semisimple", "domdim"),
    "semisimple-resolve": ("semisimple", "resolve"),
    "semisimple-predicates": ("semisimple", "predicates"),
    "nakayama-over-size-limit": ("large", "compile"),
    "kupisch-not-a-list": ("kupisch-int", "compile"),
    "vertices-not-a-list": ("vertices-int", "compile"),
    "arrow-with-two-fields": ("short-arrow", "compile"),
    "top-level-array": ("array", "compile"),
    "structure-index-too-large": ("index-5", "compile"),
    "structure-index-negative": ("index-minus-1", "compile"),
    "radical-too-short-compile": ("radical-short", "compile"),
    "radical-too-short-domdim": ("radical-short", "domdim"),
    "radical-too-short-predicates": ("radical-short", "predicates"),
    "radical-too-short-resolve": ("radical-short", "resolve"),
    "radical-too-long": ("radical-long", "compile"),
    "generator-too-long": ("generator-long", "compile"),
    "unit-too-short": ("unit-short", "compile"),
    "idempotent-too-long": ("idempotent-long", "compile"),
    "scalar-not-a-string": ("scalar-number", "compile"),
    "scalar-zero-denominator": ("zero-denominator", "compile"),
    "scalar-decimal-point": ("decimal-point", "compile"),
    "scalar-exponent": ("exponent", "compile"),
    "scalar-underscore": ("underscore", "compile"),
    "provenance-not-an-object": ("provenance-string", "compile"),
    "repeated-basis-names": ("repeated-names", "compile"),
    "repeated-idempotent-labels": ("repeated-labels", "predicates"),
    "label-names-another-element": ("label-names-x", "compile"),
}
# k[x]/(x^2) over F_2, with one vector of the wrong length
DUAL_NUMBERS = {"kind": "table", "field": {"kind": "prime", "p": 2}, "basis": ["1", "x"],
                "unit": ["1", "0"], "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
                "idempotents": [["v0", ["1", "0"]]], "radical": [["0", "1"]]}
# the cyclic Nakayama algebra (2, 3) over F_2, both idempotents labelled "v"
REPEATED_LABELS = qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 3)), F2).to_json()
REPEATED_LABELS["idempotents"] = [["v", e] for _, e in REPEATED_LABELS["idempotents"]]
ALGEBRA_FILES = {
    "semisimple": {"kind": "quiver", "vertices": ["v0"], "arrows": [], "relations": [],
                   "loewy_bound": 2, "field": {"kind": "prime", "p": 2}},
    "large": {"kind": "nakayama", "orientation": "cycle", "kupisch": [5000]},
    "kupisch-int": {"kind": "nakayama", "orientation": "cycle", "kupisch": 5},
    "vertices-int": {"kind": "quiver", "vertices": 5, "arrows": [], "relations": [],
                     "loewy_bound": 2, "field": {"kind": "prime", "p": 2}},
    "short-arrow": {"kind": "quiver", "vertices": ["v0"], "arrows": [["a", "v0"]],
                    "relations": [], "loewy_bound": 2, "field": {"kind": "prime", "p": 2}},
    "array": [{"kind": "nakayama", "orientation": "cycle", "kupisch": [2]}],
    "index-5": {"kind": "table", "field": {"kind": "prime", "p": 2}, "basis": ["e"],
                "unit": ["1"], "structure": [[0, 0, 5, "1"]],
                "idempotents": [["v0", ["1"]]], "radical": []},
    "index-minus-1": {"kind": "table", "field": {"kind": "prime", "p": 2}, "basis": ["e"],
                      "unit": ["1"], "structure": [[0, 0, -1, "1"]],
                      "idempotents": [["v0", ["1"]]], "radical": []},
    "radical-short": {**DUAL_NUMBERS, "radical": [["0"]]},
    "radical-long": {**DUAL_NUMBERS, "radical": [["0", "1", "0"]]},
    "generator-long": {**DUAL_NUMBERS, "generators": [["1", "0"], ["0", "1", "0"]]},
    "unit-short": {**DUAL_NUMBERS, "unit": ["1"]},
    "idempotent-long": {**DUAL_NUMBERS, "idempotents": [["v0", ["1", "0", "0"]]]},
    "scalar-number": {**DUAL_NUMBERS, "structure": [[0, 0, 0, 1], [0, 1, 1, "1"], [1, 0, 1, "1"]]},
    "zero-denominator": {**DUAL_NUMBERS, "field": {"kind": "rational"},
                         "structure": [[0, 0, 0, "1/0"], [0, 1, 1, "1"], [1, 0, 1, "1"]]},
    "decimal-point": {**DUAL_NUMBERS, "field": {"kind": "rational"}, "unit": ["1.0", "0"]},
    "exponent": {**DUAL_NUMBERS, "field": {"kind": "rational"}, "radical": [["0", "1e0"]]},
    "underscore": {**DUAL_NUMBERS, "idempotents": [["v0", ["1_1", "0"]]]},
    "provenance-string": {**DUAL_NUMBERS, "provenance": "abc"},
    "repeated-names": {**DUAL_NUMBERS, "basis": ["x", "x"]},
    "repeated-labels": REPEATED_LABELS,
    # the idempotent b_0 labelled with the name of b_1
    "label-names-x": {**DUAL_NUMBERS, "idempotents": [["x", ["1", "0"]]]},
}


@pytest.mark.parametrize("algebra, command", OUT_OF_SCOPE_FILES.values(),
                         ids=OUT_OF_SCOPE_FILES.keys())
def test_out_of_scope_algebra_file_exit_2(runner, tmp_path, algebra, command):
    path = tmp_path / f"{algebra}.json"
    path.write_text(json.dumps(ALGEBRA_FILES[algebra]))
    result = runner.invoke(main, ["quiver", command, "--algebra", str(path)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_module_entry_point_runs_the_cli():
    # python -m domdimlab.cli must run the command, so an unknown suite is a usage error
    src = os.path.dirname(os.path.dirname(qa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "domdimlab.cli", "verify", "--suite", "nonsense"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "unknown suite 'nonsense'" in out.stderr


def test_package_imports_no_numpy():
    code = (
        "import sys\n"
        "import domdimlab.cli\n"
        "from domdimlab import homology as hml, nakayama as nak, quivalg as qa\n"
        "from domdimlab.exactmath import F3\n"
        "table = qa.nakayama_to_table(nak.validate(nak.CYCLE, (3, 3, 3, 4)), F3)\n"
        "hml.domdim(table, 16)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(qa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# -- error contract: every input ends in exit 0, 1, 2 or 4, never a traceback --

JUNK = "0123456789,:-+ x_simpleomgacrtivdu"
VALID_SERIES = [("--cycle", c) for c in cyclic_series(1, 3, 6)] + [
    ("--line", c) for c in ((2, 1), (3, 2, 1), (2, 2, 2, 1), (3, 3, 2, 1))]
small_series = st.lists(st.integers(1, 8), min_size=1, max_size=5).filter(lambda c: sum(c) <= 40)
kupisch_text = st.one_of(small_series.map(lambda c: ",".join(map(str, c))),
                         st.text(JUNK, max_size=12))
number = st.one_of(st.integers(-3, 12), st.integers(10**11, 10**13)).map(str)
module_spec = st.recursive(
    st.one_of(st.just("simple"), st.just("dual-regular"), number.map("simple:{}".format),
              number.map("projective:{}".format), st.tuples(number, number).map(",".join),
              st.text(JUNK, max_size=10)),
    lambda inner: st.tuples(number, inner).map(lambda p: f"omega:{p[0]}:{p[1]}"), max_leaves=3)
orientation = st.sampled_from([["--cycle"], ["--line"], [], ["--cycle", "--line"]])
nak_flags = st.one_of(  # a valid series half of the time
    st.sampled_from(VALID_SERIES).map(lambda v: [v[0], "--kupisch", ",".join(map(str, v[1]))]),
    st.tuples(orientation, kupisch_text).map(lambda p: p[0] + ["--kupisch", p[1]]))


@st.composite
def cli_inputs(draw):
    flags, spec = draw(nak_flags), draw(module_spec)
    return draw(st.sampled_from([
        ["nakayama", "rigid", "--k", draw(number), *flags, "--module", spec],
        ["nakayama", "ext", *flags, "--module", spec, "--degree", "2"],
        ["nakayama", "ok", "--k", draw(st.sampled_from(["1", "2", str(10**12)])), *flags],
        ["nakayama", "info", *flags],
        ["nakayama", "domdim", *flags, "--cutoff", "16"],
        ["quiver", "resolve", "--preset", "preproj-a2", "--module", spec, "--length", "2"],
    ]))


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=cli_inputs())
def test_random_inputs_keep_the_exit_code_contract(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 1, 2, 4), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.output


ALGEBRA_FILES_VALID = [
    qa.preset("truncated-poly(3,Q)").to_json(),
    qa.nakayama_to_table(nak.validate(nak.CYCLE, (2, 3)), F2).to_json(),
    {"kind": "nakayama", "orientation": "cycle", "kupisch": [2, 3]},
    {"kind": "quiver", "vertices": ["v0", "v1"], "arrows": [["a", "v0", "v1"], ["b", "v1", "v0"]],
     "relations": ["a*b"], "loewy_bound": 3, "field": {"kind": "prime", "p": 2}},
]
json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(allow_nan=False),
              st.text("01-/ab,v*", max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text("abkinduf", max_size=5), inner, max_size=3)),
    max_leaves=6)


@st.composite
def mutated_algebra_file(draw):
    """A valid algebra file with one entry, at any depth, replaced by random JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(ALGEBRA_FILES_VALID)))
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        else:
            node[key] = draw(json_value)
            return doc


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_algebra_file(), command=st.sampled_from(
    [["compile"], ["predicates", "--cutoff", "8"], ["domdim", "--cutoff", "8"]]))
def test_random_algebra_files_keep_the_exit_code_contract(runner, tmp_path, doc, command):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["quiver", command[0], "--algebra", str(path), *command[1:]])
    assert result.exit_code in (0, 1, 2, 4), (doc, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (doc, result.exception)
    assert "Traceback" not in result.output
