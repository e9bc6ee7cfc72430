"""CLI behavior: exit codes, text and structured output, determinism, files."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermatarr
from fermatarr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arrangement_text_output(capsys):
    code, out, err = run(capsys, "arrangement", "--spec", "A(3,3,2)")
    assert code == 0
    assert out.startswith("arrangement A(3,3,2)\nhyperplanes 9\n")
    assert out.count("\n") == 11
    assert "wall" in err and "wall" not in out


def test_arrangement_structured_record(capsys):
    code, out, _ = run(capsys, "arrangement", "--spec", "A(3,0,1)",
                       "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"version", "command", "params", "result"}
    assert record["command"] == "arrangement"
    assert record["params"] == {"spec": "A(3,0,1)"}
    assert record["result"]["hyperplane_count"] == 3


def test_structured_output_is_byte_identical(capsys):
    args = ("unexpected", "--config-id", "B3_DUAL", "--degree", "4",
            "--mult", "0,3", "--seed", "5", "--format", "structured")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# SHA-256 of the --format structured stdout of each command, as printed
# by the Fraction-based arithmetic that preceded int numerators over one
# denominator; no change of arithmetic may move a byte of them
PINNED_STRUCTURED = [
    (("verify-formula", "--config-id", "GEN(5)"),
     "bf272e386c9d580baed1f9f4f1def3e9cd3ad869bf9d004c644223ebc5809917"),
    (("verify-formula", "--config-id", "MULT4(4)"),
     "0901afd35fd9ebb880cfd263a6abac1868f48e8f942d5232ae163d8f877564c4"),
    (("verify-formula", "--config-id", "BMSS"),
     "69ca0cb12840f6c3d71a089140faf2cb1d30641630aebc00a01af23b4b475861"),
    (("derived", "--spec", "A(3,0,8)", "--flat-dim", "0"),
     "40e36297cb57633eeccfc07f0976a5760a80a7a6f6cb0e2f248213f58d160422"),
    (("derived", "--spec", "A(4,0,3)", "--flat-dim", "1", "--min-count", "3"),
     "3c3baec28835ad8abe99fed40bad6a3be15b6aa24d37362a8fea90dd30cd0198"),
    (("dual", "--spec", "A(3,3,7)"),
     "5c675f032e7fcca7876ff857719eb7114fef644c766e1ef1dbd4c57b45114e52"),
    (("dimension", "--config-id", "MULT4_POINTS(5)", "--degree", "7"),
     "201261b335e55181643f238218563e6f5b657af63428ea4db166efa380400c14"),
    (("hilbert", "--config-id", "LINES42", "--max-degree", "7"),
     "3485810d93e555f89ae758b3a85ff6638e44b3ef571540f896873c9b5c400d77"),
    # the ids that name GEN(2), GEN(3) and GEN(4) under their own labels
    (("verify-formula", "--config-id", "B3"),
     "344fe7cc4e26fc1e6a18c003cb52c3adc73d420d1c0f24d38d3a6ca5def195a8"),
    (("verify-formula", "--config-id", "M3"),
     "6f59f14ea82936b39c99e9c3762a98c67d226329e1a6de9ba7c9d0111831b678"),
    (("verify-formula", "--config-id", "M4"),
     "a5ffe9df7e504363e55eff76c90cafc8ffba4d47c97ae850bc868501de7cdecc"),
]


def test_structured_records_match_pinned_digests(capsys):
    for argv, digest in PINNED_STRUCTURED:
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_usage_errors_exit_1(capsys):
    cases = [
        ("arrangement", "--spec", "B(3,3,2)"),
        ("arrangement",),
        ("no-such-command",),
        ("arrangement", "--spec", "A(3,3,2)", "--bogus"),
        ("derived", "--spec", "A(3,3,2)", "--flat-dim", "2"),
        ("derived", "--spec", "A(3,3,2)", "--flat-dim", "0", "--min-count", "1"),
        ("dimension", "--config-id", "NOPE", "--degree", "4"),
        ("dimension", "--config-id", "B3_DUAL", "--degree", "-1"),
        ("dimension", "--degree", "4"),
        ("hilbert", "--config-id", "B3_DUAL", "--max-degree", "-2"),
        ("unexpected", "--config-id", "B3_DUAL", "--degree", "4", "--mult", "3"),
        ("unexpected", "--config-id", "B3_DUAL", "--degree", "4", "--mult", "0,0"),
        ("unexpected", "--config-id", "B3_DUAL", "--degree", "4", "--mult", "a,b"),
        ("unexpected", "--config-id", "B3_DUAL", "--degree", "4", "--mult", "2,1"),
        ("verify-formula", "--config-id", "GEN(1)"),
        ("verify-generators", "--config-id", "B3_DUAL"),
        ("verify-generators", "--config-id", "NOPE"),
        ("render",),
        ("render", "--spec", "A(3,1,3)"),
        ("render", "--spec", "A(3,3,2)", "--point", "1,2,3"),
        ("render", "--config-id", "B3"),
        ("render", "--spec", "A(3,3,2)", "--grid", "1"),
        ("render", "--spec", "A(3,3,2)", "--viewport", "1,2,3"),
        ("render", "--spec", "A(3,3,2)", "--viewport", "2,1,-1,1"),
        ("render", "--config-id", "BMSS", "--point", "1,2,3,4"),
        ("render", "--config-id", "B3", "--point", "1,2"),
    ]
    for argv in cases:
        code = main(list(argv))
        capsys.readouterr()
        assert code == 1, argv


def test_matrix_budget_refusal_exits_1(capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a condition row was built")
    monkeypatch.setattr(fermatarr.interp, "component_rows", no_rows)
    for argv in (("dimension", "--config-id", "B3_DUAL", "--degree", "100000"),
                 ("hilbert", "--config-id", "B3_DUAL", "--max-degree", "100000"),
                 ("unexpected", "--config-id", "B3_DUAL", "--degree", "100000",
                  "--mult", "0,3")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "MATRIX_BUDGET" in err and "computation failed" not in err


def test_trials_over_the_matrix_budget_exit_1(capsys, monkeypatch):
    # 10**8 trials of 15 rows x 15 columns: refused before the first draw
    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was run")
    monkeypatch.setattr(fermatarr.interp, "random_flat", no_draw)
    for argv in (("unexpected", "--config-id", "B3_DUAL", "--degree", "4",
                  "--mult", "0,3", "--trials", "100000000"),
                 ("verify-formula", "--config-id", "B3",
                  "--trials", "100000000")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "100000000 trials x 15 rows" in err
        assert "MATRIX_BUDGET" in err and "computation failed" not in err


def test_flat_budget_refusal_exits_1(capsys, monkeypatch):
    def no_flat(*args):
        raise AssertionError("a flat was built")
    for name in ("from_equations", "from_span"):
        monkeypatch.setattr(fermatarr.arrange.Flat, name, staticmethod(no_flat))
    for argv in (("dimension", "--config-id", "MULT4_POINTS(3000)",
                  "--degree", "2"),
                 ("dimension", "--config-id", "FERMAT_DUAL(3000000,0)",
                  "--degree", "2"),
                 ("unexpected", "--config-id", "MULT4_POINTS(100)",
                  "--degree", "2", "--mult", "0,1"),
                 ("arrangement", "--spec", "A(3,0,10000000)"),
                 ("dual", "--spec", "A(3,0,10000000)"),
                 ("derived", "--spec", "A(4,0,1000)", "--flat-dim", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "FLAT_BUDGET" in err and "computation failed" not in err


def test_closed_form_over_the_flat_budget_exits_1(capsys, monkeypatch):
    # GEN(m) and MULT4(n) count their configurations before any polynomial:
    # both builders write their terms through _cyclic_orbits
    def no_orbits(*args):
        raise AssertionError("a polynomial was built")
    monkeypatch.setattr(fermatarr.formulas, "_cyclic_orbits", no_orbits)
    for family in ("GEN(1000000)", "MULT4(1000000)"):
        for argv in (("verify-formula", "--config-id", family),
                     ("render", "--config-id", family, "--point", "1,2,3")):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert out == ""
            assert "FLAT_BUDGET" in err and "computation failed" not in err


def test_root_literal_over_the_table_budget_exits_1(tmp_path, capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a power table was built")
    monkeypatch.setattr(fermatarr.cyclo, "power_table", no_table)
    path = tmp_path / "huge_root.scheme"
    path.write_text("ambient 2\npoint (1 : e(2000000) : 0) mult 1\n")
    code, out, err = run(capsys, "dimension", "--scheme", str(path),
                         "--degree", "1")
    assert code == 1
    assert out == ""
    assert "scheme line 2: e(2000000)" in err and "ROOT_TABLE_BUDGET" in err


def test_missing_scheme_file_exits_1(capsys):
    code, _, err = run(capsys, "dimension", "--scheme", "/no/such/file",
                       "--degree", "4")
    assert code == 1
    assert "cannot read scheme file" in err


def test_unparsable_scheme_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "z.scheme"
    for text, lineno in (("ambient 2\npoint (0:0:0) mult 1\n", 2),
                         ("ambient 2\npoint (1 : e(0) : 1) mult 1\n", 2),
                         ("ambient\npoint (1:2:3) mult 1\n", 1),
                         ("ambientfoo 2\npoint (1:2:3) mult 1\n", 1),
                         ("ambient -1\n", 1), ("ambient 0\n", 1),
                         ("ambient 2\npoint (1:2:3:4) mult 1\n", 2),
                         ("ambient 2\npoint (1:2:3) mult 1\n"
                          "point (2:4:6) mult 1\n", 3),
                         ("ambient 2\npoint (1:2:3) mult 0\n", 2),
                         ("point (1:2:3) mult 1\nambient 3\n", 2)):
        bad.write_text(text)
        code, _, err = run(capsys, "dimension", "--scheme", str(bad),
                           "--degree", "2")
        assert code == 1
        assert f"scheme line {lineno}:" in err
        if text.startswith("ambientfoo"):  # the misspelt header is named
            assert "'ambientfoo'" in err


def test_dual_lists_points(capsys):
    code, out, _ = run(capsys, "dual", "--spec", "A(3,3,2)")
    assert code == 0
    assert out.splitlines()[0] == "dual points of A(3,3,2): 9"
    assert "  (1 : 0 : 0)" in out


def test_derived_counts_42_lines(capsys):
    code, out, _ = run(capsys, "derived", "--spec", "A(4,0,3)",
                       "--flat-dim", "1", "--min-count", "3",
                       "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["flat_count"] == 42
    flats = record["result"]["flats"]
    assert len(flats) == 42
    # the canonical RREF equations, pinned in text
    assert flats[0] == "flat { eq: x2, x3 }"
    assert flats[-1] == "flat { eq: x0 + (1 + e(3))*x2, x1 + (1 + e(3))*x2 }"
    code, out, _ = run(capsys, "derived", "--spec", "A(3,0,5)",
                       "--flat-dim", "0", "--min-count", "3",
                       "--format", "structured")
    assert code == 0
    points = json.loads(out)["result"]["flats"]
    s = "-1 - e(5) - e(5)^2 - e(5)^3"
    assert points[0] == "point (1 : 0 : 0)"
    assert points[-1] == f"point ({s} : {s} : 1)"


def test_dimension_command(capsys, tmp_path):
    code, out, _ = run(capsys, "dimension", "--config-id", "B3_DUAL",
                       "--degree", "4")
    assert code == 0
    assert "dimension 6" in out

    f = tmp_path / "one.scheme"
    f.write_text("ambient 2\npoint (1:0:0) mult 2\n")
    code, out, _ = run(capsys, "dimension", "--scheme", str(f),
                       "--degree", "2", "--format", "structured")
    assert code == 0
    assert json.loads(out)["result"] == {
        "ambient": 2, "components": 1, "total_monomials": 6, "dimension": 3}


def test_readme_root_of_unity_example(capsys, tmp_path):
    f = tmp_path / "roots.scheme"
    f.write_text("ambient 2\npoint (1 : e(3) : e(3)^2) mult 1\n")
    code, out, _ = run(capsys, "dimension", "--scheme", str(f),
                       "--degree", "1", "--format", "structured")
    assert code == 0
    assert json.loads(out)["result"]["dimension"] == 2


def test_hilbert_command(capsys):
    code, out, _ = run(capsys, "hilbert", "--config-id", "B3_DUAL",
                       "--max-degree", "4", "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["ranks"] == [1, 3, 6, 9, 9]
    assert record["result"]["dimensions"] == [0, 0, 0, 1, 6]

    code, out, _ = run(capsys, "hilbert", "--config-id", "B3_DUAL",
                       "--max-degree", "2")
    assert out.splitlines()[0] == "degree  rank  dimension"


def test_unexpected_command_positive_and_negative(capsys, tmp_path):
    code, out, _ = run(capsys, "unexpected", "--config-id", "B3_DUAL",
                       "--degree", "4", "--mult", "0,3",
                       "--format", "structured")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["expected"] == 0 and result["actual"] == 1
    assert result["unexpected"] is True

    pts = "\n".join(f"point (1:{t}:{t * t * t + t + 7}) mult 1" for t in range(9))
    f = tmp_path / "generic.scheme"
    f.write_text("ambient 2\n" + pts + "\n")
    code, out, _ = run(capsys, "unexpected", "--scheme", str(f),
                       "--degree", "4", "--mult", "0,3")
    assert code == 0  # a completed computation, whatever the verdict
    assert "unexpected: no" in out


def test_unexpected_multi_template(capsys):
    code, out, _ = run(capsys, "unexpected", "--config-id", "FERMAT_DUAL(3,2)",
                       "--degree", "5", "--mult", "0,4", "--trials", "1",
                       "--format", "structured")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dim_Z"] == 10 and result["conditions_X"] == 10
    assert result["unexpected"] is True and result["actual"] == 1


def test_verify_formula_command(capsys):
    code, out, _ = run(capsys, "verify-formula", "--config-id", "B3",
                       "--trials", "1")
    assert code == 0
    assert "vanishing on configuration: pass" in out
    assert "multiplicity 3 (expected 3): pass" in out
    assert "unexpected: yes" in out

    code, out, _ = run(capsys, "verify-formula", "--config-id", "P5",
                       "--trials", "1")
    assert code == 0
    assert "closed form: none (existence-only family)" in out

    code, out, _ = run(capsys, "verify-formula", "--config-id", "MULT4(3)",
                       "--trials", "1", "--format", "structured")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["vanishing"] is True and result["kernel_member"] is True
    assert result["multiplicity_attained"] == 4


def test_verify_generators_command(capsys):
    code, out, _ = run(capsys, "verify-generators", "--config-id", "LINES42")
    assert code == 0
    assert "6 generators, all vanish on the configuration" in out

    code, out, _ = run(capsys, "verify-generators", "--config-id", "BMSS_P3",
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["result"] == {"generator_count": 8,
                                         "all_vanish": True}


def test_a_failed_check_exits_3(capsys, monkeypatch):
    # one check made to fail: the output is printed in full, FAIL and all,
    # and the exit code is neither 0 nor a refusal's 1 or a failure's 2
    real = fermatarr.cli.verify_family

    def no_kernel_member(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), kernel_member=False)
    monkeypatch.setattr(fermatarr.cli, "verify_family", no_kernel_member)
    code, out, _ = run(capsys, "verify-formula", "--config-id", "B3",
                       "--trials", "1")
    assert code == 3
    assert "specialized kernel membership: FAIL" in out
    assert "unique (actual dimension 1): pass" in out

    monkeypatch.setattr(fermatarr.cli, "verify_published_generators",
                        lambda cfg: False)
    code, out, _ = run(capsys, "verify-generators", "--config-id", "LINES42",
                       "--format", "structured")
    assert code == 3
    assert json.loads(out)["result"] == {"generator_count": 6,
                                         "all_vanish": False}


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "dim.json"
    code, out, _ = run(capsys, "dimension", "--config-id", "B3_DUAL",
                       "--degree", "4", "--format", "structured",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"]["dimension"] == 6


def test_render_arrangement_svg(capsys, tmp_path):
    target = tmp_path / "b3.svg"
    code, out, _ = run(capsys, "render", "--spec", "A(3,3,2)",
                       "--grid", "32", "--out", str(target))
    assert code == 0 and out == ""
    svg = target.read_text()
    assert svg.startswith("<?xml") and "<svg" in svg
    assert "arrangement: 8 lines drawn, 1 outside this chart" in svg

    code, out, _ = run(capsys, "render", "--spec", "A(3,0,1)", "--grid", "16")
    assert code == 0
    assert "arrangement: 3 lines drawn, 0 outside this chart" in out
    assert "<line " in out


def test_render_curve_svg(capsys):
    code, out, _ = run(capsys, "render", "--spec", "A(3,3,2)",
                       "--config-id", "B3", "--point", "2,3,5",
                       "--grid", "64")
    assert code == 0
    assert "curve:" in out and "contour segments" in out
    assert "<path" in out
    # B3 is GEN(2) relabelled, and must draw what the paper's quartic drew
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "af157a9abacd4ac2e0d4f3ea737683d29100dc9e4fa69e7389671bda7dcb6c55"


# render sums a curve's terms as floats in the order the builder writes
# them; these SVGs were drawn from the closed forms' product expansions
PINNED_CURVE_SVGS = [
    (("B3", "1,2,3"),
     "2ed1fb7628e599f019ec0059d9c04eb3b341851cf8039628252061db27921e6d"),
    (("B3", "2,-1,1"),
     "2172a440ddf7a67147fbfa3467506e5703461741be24aeb1db9557f631ced58a"),
    (("GEN(5)", "1,2,3"),
     "59810287d5df5360891d88d6d1d25fd9899152780c297ef3524d08282f0e11b9"),
    (("GEN(5)", "2,-1,1"),
     "f6b89b594c683e138cacf9550a720f73b0b722498c02aa1c28bad6576d0be63c"),
    (("GEN(8)", "1,2,3"),
     "7cbe2c83dc6ba3e736f9a54b12f1fd6ff47bef77e52e06365ac6b6aa44d9afab"),
    (("GEN(8)", "2,-1,1"),
     "ed1863a63862d3a5054f8b12ca727079e588ccec0ff836a2ea337608d7b80c1f"),
    (("MULT4(4)", "1,2,3"),
     "964f0e1f7b0f526bd614db2f937379635c10b6394488c1126f6f6c47a58c65b5"),
    (("MULT4(4)", "2,-1,1"),
     "44150cf6177fb0210415f73302318a92fc5399a3da321505bd68eba9bf34fa79"),
]


def test_closed_form_curve_svgs_match_pinned_digests(capsys):
    for (family, point), digest in PINNED_CURVE_SVGS:
        code, out, _ = run(capsys, "render", "--config-id", family,
                           "--point", point)
        assert code == 0, family
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, point)


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip()


def test_console_script_runs():
    # the child does not see pytest's pythonpath; hand it the imported src
    src = str(Path(fermatarr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fermatarr.cli", "arrangement",
         "--spec", "A(3,1,1)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("arrangement A(3,1,1)")
