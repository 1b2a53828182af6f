import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringstruct.cli import EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, main
from ringstruct.documents import load_path, parse, serialize, to_object
from ringstruct.reports import render, run_report
from ringstruct.generators import generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_document(tmp_path, capsys):
    out = tmp_path / "t3.alg"
    code, _, _ = run_cli(capsys, "generate", "t", "n=3", "-o", str(out))
    assert code == EXIT_OK
    assert load_path(out).name == "T3"


def test_generate_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "generate", "cocycle")
    assert code == EXIT_OK
    assert stdout.startswith("format 1\nkind algebra\nname cocycle")


def test_generate_invalid_params(capsys):
    code, _, err = run_cli(capsys, "generate", "t", "n=1")
    assert code == EXIT_VALIDATION
    assert "error" in err


def test_generate_rejects_parameter_over_digit_cap(capsys):
    code, out, err = run_cli(capsys, "generate", "h", "a=-" + "7" * 1001)
    assert code == EXIT_VALIDATION
    assert "at most 1000 digits" in err
    assert out == ""


def test_generate_rejects_quaternion_product_over_digit_cap(capsys):
    big = "7" * 600
    code, out, err = run_cli(capsys, "generate", "h", f"a=-{big}", f"b=-{big}")
    assert code == EXIT_VALIDATION
    assert "at most 1000 digits" in err
    assert out == ""


def test_generate_at_digit_cap_parses_back(tmp_path, capsys):
    out = tmp_path / "h.alg"
    a = "-" + "7" * 1000
    code, _, _ = run_cli(capsys, "generate", "h", f"a={a}", "b=-1", "-o", str(out))
    assert code == EXIT_OK
    assert load_path(str(out)) == generate("h", {"a": a, "b": "-1"})


def test_classify_text(tmp_path, capsys):
    out = tmp_path / "m2.alg"
    run_cli(capsys, "generate", "m", "n=2", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "classify", str(out))
    assert code == EXIT_OK
    assert "unital: True" in stdout
    assert "s: 1" in stdout


def test_classify_json_deterministic(tmp_path, capsys):
    out = tmp_path / "h.alg"
    run_cli(capsys, "generate", "h", "-o", str(out))
    code, first, _ = run_cli(capsys, "classify", str(out), "--format", "json")
    assert code == EXIT_OK
    code, second, _ = run_cli(capsys, "classify", str(out), "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"]["s"] == 1
    sf = payload["certificates"]["factors"][0]["simple_factors"][0]
    assert sf["division_type"] == "QUATERNION"


def test_radical_and_idempotents_commands(tmp_path, capsys):
    out = tmp_path / "ut3.alg"
    run_cli(capsys, "generate", "utd", "n=3", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "radical", str(out))
    assert code == EXIT_OK and "radical_dim: 3" in stdout
    code, stdout, _ = run_cli(capsys, "idempotents", str(out), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["verdict"]["found"] is True


def test_unitize_command(tmp_path, capsys):
    out = tmp_path / "t3.alg"
    run_cli(capsys, "generate", "t", "n=3", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "unitize", str(out), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["verdict"]["dim_after"] == 4
    assert payload["verdict"]["increment"] <= payload["verdict"]["bound"]


def test_oracle_finite_only(tmp_path, capsys):
    ring_path = tmp_path / "z4.ring"
    run_cli(capsys, "generate", "zn", "n=4", "-o", str(ring_path))
    code, stdout, _ = run_cli(capsys, "oracle", str(ring_path))
    assert code == EXIT_OK and "jacobson: [0, 2]" in stdout
    alg_path = tmp_path / "m2.alg"
    run_cli(capsys, "generate", "m", "n=2", "-o", str(alg_path))
    code, _, err = run_cli(capsys, "oracle", str(alg_path))
    assert code == EXIT_VALIDATION


def test_validation_failure_names_triple(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        "format 1\nkind algebra\nname broken\ndim 3\nlabels K1 K1 K1\n"
        "constants\n0 2 1 1\n2 0 2 1\nend\n"
    )
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == EXIT_VALIDATION
    assert "triple" in err


def test_corpus_run(tmp_path, capsys):
    for fam, params, name in [
        ("t", ["n=3"], "t3.alg"),
        ("m", ["n=2"], "m2.alg"),
        ("zn", ["n=6"], "z6.ring"),
        ("disconnected", [], "disc.mix"),
    ]:
        run_cli(capsys, "generate", fam, *params, "-o", str(tmp_path / name))
    code, stdout, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_OK
    for header in ("== t3.alg", "== m2.alg", "== z6.ring", "== disc.mix"):
        assert header in stdout


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/path.alg")
    assert code == EXIT_VALIDATION


def test_mixed_classify_report(capsys, tmp_path):
    out = tmp_path / "z3q.mix"
    run_cli(capsys, "generate", "z3q", "-o", str(out))
    code, stdout, _ = run_cli(capsys, "classify", str(out))
    assert code == EXIT_OK
    assert "unital_split: True" in stdout


def test_report_determinism_bytes():
    doc = generate("sum", {"parts": "m:2:K1,field::K2"})
    a = render(run_report(doc, "classify"), "text")
    b = render(run_report(doc, "classify"), "text")
    assert a == b


def test_corpus_run_isolates_internal_errors(tmp_path, capsys, monkeypatch):
    import ringstruct.cli as cli
    from ringstruct.errors import InternalInvariantError

    for fam, params, name in [
        ("t", ["n=3"], "a-t3.alg"),
        ("m", ["n=2"], "b-m2.alg"),
        ("cocycle", [], "c-cocycle.alg"),
    ]:
        run_cli(capsys, "generate", fam, *params, "-o", str(tmp_path / name))
    (tmp_path / "d-bad.alg").write_text("format 1\nkind algebra\nname bad\ndim x\n")
    real = cli.run_report

    def flaky(doc, command):
        if doc.name == "M2":
            raise InternalInvariantError("planted failure")
        return real(doc, command)

    monkeypatch.setattr(cli, "run_report", flaky)
    code, stdout, _ = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == EXIT_INTERNAL
    assert "== b-m2.alg\ninternal invariant violated: planted failure" in stdout
    assert "== d-bad.alg\nerror:" in stdout
    # the documents after the failing one are still reported
    assert stdout.split("== c-cocycle.alg\n")[1].startswith("certificates:")


ALGEBRA_HEAD = "format 1\nkind algebra\nname bad\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (ALGEBRA_HEAD + "dim 1\nlabels K1\nconstants\n0 0 0 1/0\nend\n", "zero denominator"),
        (ALGEBRA_HEAD + "dim x\nlabels K1\nconstants\nend\n", "dim must be an integer"),
        (ALGEBRA_HEAD + "dim 1\nlabels K1\nconstants\n0 0 0 1.5\nend\n", "expected a rational"),
        (ALGEBRA_HEAD + "dim 1\nlabels K1\nconstants\n0 0 0 1e99999\nend\n", "expected a rational"),
        (ALGEBRA_HEAD + "dim 1\nlabels K1\nconstants\n0 0 0 " + "7" * 1001 + "\nend\n",
         "at most 1000 digits"),
        (ALGEBRA_HEAD + "dim 1\nlabels K1\nconstants\n0 0x 0 1\nend\n", "constant index"),
        ("format one\nkind algebra\n", "format version must be an integer"),
        ("format 1\nkind finite_ring\nname z\norder 2\nzero 0\nadd\n0 1\n1 0.0\n", "table row"),
        ("format 1\nkind finite_ring\nname z\norder 1\nzero +0\n", "zero must be an integer"),
    ],
    ids=[
        "zero-denominator", "dim-word", "decimal", "exponent", "too-many-digits",
        "index-word", "format-word", "table-decimal", "signed-zero-field",
    ],
)
def test_malformed_numbers_exit_1_with_message(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.doc"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "classify", str(bad))
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("order", ["100000", "257", "0"])
def test_finite_order_outside_cap_exits_1_before_rows(tmp_path, capsys, order):
    # no table rows follow: the order is rejected before any row is read
    bad = tmp_path / "big.ring"
    bad.write_text(f"format 1\nkind finite_ring\nname big\norder {order}\nzero 0\nadd\n")
    code, out, err = run_cli(capsys, "oracle", str(bad))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and "1..256" in err and order in err


def test_cross_keys_outside_the_finite_part_exit_1(tmp_path, capsys):
    # an order-3 finite part: the keys (5, 5) and (-1, 0) name no element
    doc = tmp_path / "z3q-bad.doc"
    doc.write_text(
        serialize(generate("z3q")).replace(
            "torsion_rank 0\ncross\nend", "torsion_rank 1\ncross\n5 5 1/2\n-1 0 1/3\nend"
        )
    )
    code, out, err = run_cli(capsys, "classify", str(doc))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and "cross table key" in err and "0..2" in err


def test_radical_runs_without_loading_sympy(tmp_path):
    # sympy only factors polynomials; a fresh interpreter that imports the
    # package and computes a radical must not load it
    doc = tmp_path / "utd3.alg"
    doc.write_text(serialize(generate("utd", {"n": "3"})))
    code = (
        "import sys\n"
        "import ringstruct\n"
        "from ringstruct.cli import main\n"
        f"assert main(['radical', {str(doc)!r}]) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert "radical" in result.stdout
