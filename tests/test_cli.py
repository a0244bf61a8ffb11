import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rot4.cli as cli_module
import rot4.verify as verify_module
from rot4 import (
    DEFAULT_EPS,
    Double,
    Plane,
    Quaternion,
    Rotation4,
    apply,
    from_reflections,
    normalized,
    ReflectionNormal,
)
from rot4.cli import build_verify_report, main, parse_doc
from conftest import comp_diff

R2 = 1.0 / math.sqrt(2.0)

F_DOC = json.dumps({"a": [R2, R2, 0.0, 0.0], "b": [R2, 0.0, R2, 0.0]})
G_DOC = json.dumps({"a": [R2, 0.0, R2, 0.0], "b": [R2, 0.0, 0.0, R2]})
IDENTITY_DOC = json.dumps({"a": [1.0, 0.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]})
# a simple rotation with its factors printed at 8 decimals: once renormalized
# (--normalize), |S(a) - S(b)| is about 2.9e-9, which classify calls Simple
ROUNDED = {
    "a": [0.72891192, 0.45310598, 0.22663348, -0.46045591],
    "b": [0.72891192, 0.53232799, -0.07931467, -0.4231117],
}
ROUNDED_DOC = json.dumps(ROUNDED)


@pytest.fixture
def write_doc(tmp_path):
    counter = [0]

    def _write(text: str) -> str:
        counter[0] += 1
        path = tmp_path / f"doc{counter[0]}.json"
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestClassify:
    def test_golden_simple(self, capsys, write_doc):
        code, out = run(capsys, "classify", write_doc(F_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "simple"
        assert abs(report["angles"][0] - math.pi / 2) <= 1e-12
        fixed = next(p for p in report["planes"] if p["role"] == "fixed")
        # projector of span{i-j, 1+k}
        u = np.array([0, 1, -1, 0]) / math.sqrt(2)
        w = np.array([1, 0, 0, 1]) / math.sqrt(2)
        expected = np.outer(u, u) + np.outer(w, w)
        assert np.abs(np.array(fixed["plane"]["projector"]) - expected).max() <= 1e-10

    def test_human_output(self, capsys, write_doc):
        code, out = run(capsys, "classify", write_doc(F_DOC))
        assert code == 0
        assert "kind: simple" in out
        assert "fixed plane" in out
        assert "deg" in out

    def test_identity(self, capsys, write_doc):
        code, out = run(capsys, "classify", write_doc(IDENTITY_DOC), "--json")
        assert code == 0
        assert json.loads(out)["kind"] == "identity"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(F_DOC))
        code, out = run(capsys, "classify", "-", "--json")
        assert code == 0
        assert json.loads(out)["kind"] == "simple"

    def test_malformed_json(self, capsys, write_doc):
        code, _ = run(capsys, "classify", write_doc("{not json"))
        assert code == 2

    def test_missing_key(self, capsys, write_doc):
        code, _ = run(capsys, "classify", write_doc('{"a": [1, 0, 0, 0]}'))
        assert code == 2

    def test_wrong_length(self, capsys, write_doc):
        code, _ = run(capsys, "classify", write_doc('{"a": [1, 0, 0], "b": [1, 0, 0, 0]}'))
        assert code == 2

    # json reads 1e400 as inf; float() overflows on a 401-digit integer
    @pytest.mark.parametrize(
        "number", ["NaN", "1e400", "1" + "0" * 400], ids=["nan", "1e400", "huge-int"]
    )
    def test_non_finite(self, capsys, write_doc, number):
        code, _ = run(
            capsys,
            "classify",
            write_doc('{"a": [%s, 0, 0, 0], "b": [1, 0, 0, 0]}' % number),
        )
        assert code == 2

    def test_non_unit_without_normalize(self, capsys, write_doc):
        doc = json.dumps({"a": [1.0, 1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]})
        code = main(["classify", write_doc(doc)])
        assert code == 3
        assert "pass --normalize to renormalize" in capsys.readouterr().err

    def test_non_unit_with_normalize(self, capsys, write_doc):
        doc = json.dumps({"a": [1.0, 1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]})
        code, out = run(capsys, "classify", write_doc(doc), "--normalize", "--json")
        assert code == 0
        assert json.loads(out)["kind"] == "left-isoclinic"

    def test_normalize_where_the_squared_norm_overflows(self, capsys, write_doc):
        # |a|^2 overflows; --normalize still scales a to (R2, R2, 0, 0)
        huge = json.dumps({"a": [1e308, 1e308, 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]})
        code, out = run(capsys, "classify", write_doc(huge), "--normalize", "--json")
        assert code == 0
        unit = json.dumps({"a": [R2, R2, 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]})
        assert json.loads(out) == json.loads(run(capsys, "classify", write_doc(unit), "--json")[1])

    # json's decoder raises neither as JSONDecodeError: RecursionError on deep
    # nesting, and ValueError past the interpreter's limit on integer digits
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100000, "maximum recursion depth"),
            ('{"a": [1%s, 0, 0, 0], "b": [1, 0, 0, 0]}' % ("0" * 5000), "Exceeds the limit"),
        ],
        ids=["deep", "5001-digits"],
    )
    @pytest.mark.parametrize("command", ["classify", "verify", "reflections", "compose"])
    def test_undecodable_document_is_malformed(self, capsys, write_doc, command, text, message):
        docs = [write_doc(text)] * (2 if command == "compose" else 1)
        assert main([command, *docs]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON: {message}")


class TestCompose:
    def test_golden(self, capsys, write_doc):
        code, out = run(capsys, "compose", write_doc(F_DOC), write_doc(G_DOC))
        assert code == 0
        doc = json.loads(out)
        assert np.abs(np.array(doc["a"]) - [0.5, 0.5, 0.5, -0.5]).max() <= 1e-12
        assert np.abs(np.array(doc["b"]) - [0.5, 0.5, 0.5, 0.5]).max() <= 1e-12

    def test_inverse_gives_identity(self, capsys, write_doc):
        f_inv = json.dumps({"a": [R2, -R2, 0.0, 0.0], "b": [R2, 0.0, -R2, 0.0]})
        code, out = run(capsys, "compose", write_doc(F_DOC), write_doc(f_inv))
        assert code == 0
        doc = json.loads(out)
        assert np.abs(np.array(doc["a"]) - [1, 0, 0, 0]).max() <= 1e-12
        assert np.abs(np.array(doc["b"]) - [1, 0, 0, 0]).max() <= 1e-12

    def test_check_simple_golden(self, capsys, write_doc):
        code, out = run(
            capsys, "compose", write_doc(F_DOC), write_doc(G_DOC), "--check-simple"
        )
        assert code == 0
        rep = json.loads(out)["simplicity"]
        assert rep["is_simple"]
        assert rep["intersection_dim"] >= 1
        assert abs(rep["s_condition"]) <= 1e-8
        assert abs(rep["s_condition"] + 2 * rep["det_normals"]) <= 1e-9

    def test_check_simple_rejects_double(self, capsys, write_doc):
        double_doc = json.dumps(
            {"a": [math.cos(0.5), math.sin(0.5), 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]}
        )
        code, _ = run(
            capsys, "compose", write_doc(double_doc), write_doc(G_DOC), "--check-simple"
        )
        assert code == 2

    def test_check_simple_rounded_factors(self, capsys, write_doc):
        code, out = run(
            capsys,
            "compose",
            write_doc(ROUNDED_DOC),
            write_doc(G_DOC),
            "--check-simple",
            "--normalize",
        )
        assert code == 0
        rep = json.loads(out)["simplicity"]
        assert abs(rep["s_condition"] + 2 * rep["det_normals"]) <= 1e-12

    def test_gibbs_golden(self, capsys, write_doc):
        code, out = run(capsys, "compose", write_doc(F_DOC), write_doc(G_DOC), "--gibbs")
        assert code == 0
        gibbs = json.loads(out)["gibbs"]
        assert np.abs(np.array(gibbs["p_tilde"]) - [1, 1, -1]).max() <= 1e-12
        assert np.abs(np.array(gibbs["q_tilde"]) - [1, 1, 1]).max() <= 1e-12
        assert abs(gibbs["cos_alpha"] - 0.5) <= 1e-12

    def test_boundary_unit_norm_inputs_compose(self, capsys, write_doc):
        # two documents at the admission boundary; the product factors must
        # not trip the unit gate
        scale = 1.0 + 4e-10
        doc1 = json.dumps(
            {"a": [R2 * scale, R2 * scale, 0, 0], "b": [R2 * scale, 0, R2 * scale, 0]}
        )
        doc2 = json.dumps(
            {"a": [R2 * scale, 0, R2 * scale, 0], "b": [R2 * scale, 0, 0, R2 * scale]}
        )
        code, out = run(capsys, "compose", write_doc(doc1), write_doc(doc2))
        assert code == 0
        doc = json.loads(out)
        assert np.abs(np.array(doc["a"]) - [0.5, 0.5, 0.5, -0.5]).max() <= 1e-9

    def test_gibbs_singular_is_warning_not_failure(self, capsys, write_doc):
        # equal left Gibbs vectors make the p-denominator vanish
        same_left = json.dumps({"a": [R2, R2, 0.0, 0.0], "b": [R2, 0.0, 0.0, R2]})
        code, out = run(
            capsys, "compose", write_doc(F_DOC), write_doc(same_left), "--gibbs"
        )
        assert code == 0
        doc = json.loads(out)
        assert "singular" in doc["gibbs"]
        assert "a" in doc and "b" in doc

    def test_stdin_for_one_factor(self, capsys, monkeypatch, write_doc):
        _, want = run(capsys, "compose", write_doc(F_DOC), write_doc(G_DOC))
        monkeypatch.setattr("sys.stdin", io.StringIO(F_DOC))
        code, out = run(capsys, "compose", "-", write_doc(G_DOC))
        assert (code, out) == (0, want)

    def test_stdin_for_both_factors(self, capsys, monkeypatch):
        """stdin holds one document, so - for both f and g is refused
        before anything is read."""

        class Unread:
            def read(self, *args):
                raise AssertionError("stdin was read")

        monkeypatch.setattr("sys.stdin", Unread())
        code = main(["compose", "-", "-"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: f and g cannot both be - (stdin holds one document)\n"
        )


class TestVerify:
    def test_golden_composition(self, capsys, write_doc):
        h_doc = json.dumps({"a": [0.5, 0.5, 0.5, -0.5], "b": [0.5, 0.5, 0.5, 0.5]})
        code, out = run(capsys, "verify", write_doc(h_doc), "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"]
        assert rep["max_projector_distance"] <= 1e-8
        assert rep["max_angle_difference"] <= 1e-8

    def test_identity(self, capsys, write_doc):
        code, out = run(capsys, "verify", write_doc(IDENTITY_DOC), "--json")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_seeded_random_batch(self, capsys, write_doc):
        kinds = ["any", "simple", "double", "left-isoclinic", "right-isoclinic"]
        for seed in range(250):
            code, out = run(capsys, "random", "--seed", str(seed), "--kind", kinds[seed % 5])
            assert code == 0
            code, _ = run(capsys, "verify", write_doc(out))
            assert code == 0

    def test_human_output(self, capsys, write_doc):
        h_doc = json.dumps({"a": [0.5, 0.5, 0.5, -0.5], "b": [0.5, 0.5, 0.5, 0.5]})
        code, out = run(capsys, "verify", write_doc(h_doc))
        assert code == 0
        assert "formula:" in out and "oracle:" in out and "ok" in out

    def test_unattainable_eps_exits_one(self, capsys, write_doc):
        code, out = run(capsys, "random", "--seed", "3")
        assert code == 0
        code, _ = run(capsys, "verify", write_doc(out), "--eps", "1e-17")
        assert code == 1

    def test_boundary_unit_norm_doc(self, capsys, write_doc):
        # factors at the edge of the unit-norm admission still verify cleanly
        scale = 1.0 + 4e-10
        doc = json.dumps(
            {
                "a": [R2 * scale, R2 * scale, 0.0, 0.0],
                "b": [R2 * scale, 0.0, R2 * scale, 0.0],
            }
        )
        code, out = run(capsys, "verify", write_doc(doc), "--json")
        assert code == 0
        assert json.loads(out)["ok"]


class TestMovedNames:
    def test_plain_globals_after_the_first_read(self):
        import rot4.sample

        assert cli_module.build_verify_report is verify_module.build_verify_report
        assert cli_module.random_rotation is rot4.sample.random_rotation
        assert {"build_verify_report", "random_rotation"} <= set(vars(cli_module))
        with pytest.raises(AttributeError, match="has no attribute 'cmd_nothing'"):
            cli_module.cmd_nothing

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["verify", "/nonexistent.json"], 2, "error: cannot read /nonexistent.json: "),
            (["random", "--kind", "double", "--eps", "2"], 1, "error: failed to generate a double"),
        ],
        ids=["verify", "random"],
    )
    def test_python_m_rot4_cli(self, argv, code, err):
        # the moved modules raise rot4.cli's _CliError, which python -m must catch
        proc = subprocess.run(
            [sys.executable, "-m", "rot4.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert proc.returncode == code and proc.stderr.startswith(err), proc.stderr


class TestVerifyCatchesWrongFormula:
    """verify compares classify's planes and angles with the oracle's, so a
    wrong formula plane or angle is reported: here the classify that
    rot4.verify calls is replaced by one that alters the true Double of DOC
    (angles 105 and 15 degrees)."""

    DOC = json.dumps({"a": [0.5, 0.5, 0.5, -0.5], "b": [R2, R2, 0.0, 0.0]})

    @staticmethod
    def _classify_with(monkeypatch, alter):
        true_classify = verify_module.classify

        def altered(r, eps=DEFAULT_EPS):
            kind = true_classify(r, eps)
            assert isinstance(kind, Double)
            return alter(kind)

        monkeypatch.setattr(verify_module, "classify", altered)

    @staticmethod
    def _tilted(kind: Double, tilt: float) -> Double:
        """plane1 with its w turned by tilt towards plane2's u."""
        w = kind.plane1.w * math.cos(tilt) + kind.plane2.u * math.sin(tilt)
        return Double(Plane(kind.plane1.u, w), kind.angle1, kind.plane2, kind.angle2)

    @pytest.mark.parametrize("tilt, ok", [(1e-6, False), (1e-10, True)], ids=str)
    def test_tilted_plane(self, capsys, monkeypatch, write_doc, tilt, ok):
        self._classify_with(monkeypatch, lambda kind: self._tilted(kind, tilt))
        a, b = parse_doc(self.DOC)
        report = build_verify_report(Rotation4(a, b))
        assert report["ok"] is ok
        assert report["max_angle_difference"] <= 1e-15
        assert (report["max_projector_distance"] > 1e-7) is not ok
        code, out = run(capsys, "verify", write_doc(self.DOC))
        assert (code, out.splitlines()[-1]) == ((0, "ok") if ok else (1, "DISCREPANCY"))

    def test_swapped_angles(self, capsys, monkeypatch, write_doc):
        self._classify_with(
            monkeypatch, lambda k: Double(k.plane1, k.angle2, k.plane2, k.angle1)
        )
        code, out = run(capsys, "verify", write_doc(self.DOC))
        assert (code, out.splitlines()[-1]) == (1, "DISCREPANCY")
        code, out = run(capsys, "verify", write_doc(self.DOC), "--json")
        report = json.loads(out)
        assert code == 1 and not report["ok"]
        assert report["max_projector_distance"] > 0.5


class TestRandom:
    def test_deterministic(self, capsys):
        _, out1 = run(capsys, "random", "--seed", "42")
        _, out2 = run(capsys, "random", "--seed", "42")
        assert out1 == out2

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("simple", "simple"),
            ("double", "double"),
            ("left-isoclinic", "left-isoclinic"),
            ("right-isoclinic", "right-isoclinic"),
        ],
    )
    def test_kinds(self, capsys, kind, expected, write_doc):
        for seed in range(100):
            code, out = run(capsys, "random", "--seed", str(seed), "--kind", kind)
            assert code == 0
            assert run(capsys, "random", "--seed", str(seed), "--kind", kind)[1] == out
            code, out2 = run(capsys, "classify", write_doc(out), "--json")
            assert code == 0
            assert json.loads(out2)["kind"] == expected

    def test_left_isoclinic_right_factor_is_one(self, capsys):
        _, out = run(capsys, "random", "--seed", "7", "--kind", "left-isoclinic")
        assert json.loads(out)["b"] == [1.0, 0.0, 0.0, 0.0]

    def test_round_trip_bit_identical(self, capsys):
        for seed in range(20):
            _, out = run(capsys, "random", "--seed", str(seed))
            a1, b1 = parse_doc(out)
            emitted = json.dumps(
                {"a": list(a1.components()), "b": list(b1.components())}
            )
            a2, b2 = parse_doc(emitted)
            assert a1.components() == a2.components()
            assert b1.components() == b2.components()

    def test_negative_seed_is_malformed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["random", "--seed", "-1"])
        assert exc.value.code == 2
        assert "error: argument --seed: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["2", "5"])
    def test_unreachable_double_exits_1(self, capsys, eps):
        # |S(a) - S(b)| <= 2, so at eps >= 2 every pair is Simple: no draw is a double
        assert main(["random", "--kind", "double", "--eps", eps]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: failed to generate a double rotation at eps = {eps}\n")


class TestArguments:
    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1", "-1e-300"])
    @pytest.mark.parametrize("command", ["classify", "verify", "reflections", "compose", "random"])
    def test_eps_must_be_finite_and_non_negative(self, capsys, write_doc, command, eps):
        docs = [] if command == "random" else [write_doc(F_DOC)] * (2 if command == "compose" else 1)
        with pytest.raises(SystemExit) as exc:
            main([command, *docs, f"--eps={eps}"])
        assert exc.value.code == 2
        assert "error: argument --eps: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "verify", "reflections", "compose"])
    def test_negative_eps_form_is_documented(self, capsys, write_doc, command):
        # argparse reads "-1e-3" after "--eps " as an option; the help names the
        # form that reaches the range check, --eps=-1e-3
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "must be written --eps=-1e-3" in " ".join(capsys.readouterr().out.split())
        docs = [write_doc(F_DOC)] * (2 if command == "compose" else 1)
        for argv, message in (
            (["--eps", "-1e-3"], "argument --eps: expected one argument"),
            (["--eps=-1e-3"], "argument --eps: must be finite and >= 0, got '-1e-3'"),
        ):
            with pytest.raises(SystemExit) as exc:
                main([command, *docs, *argv])
            assert exc.value.code == 2
            assert f"error: {message}" in capsys.readouterr().err

    def test_eps_zero_and_malformed_text(self, capsys, write_doc):
        assert run(capsys, "classify", write_doc(F_DOC), "--eps", "0")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", write_doc(F_DOC), "--eps", "tiny"])
        assert exc.value.code == 2
        assert "invalid float value: 'tiny'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "verify", "reflections", "compose"])
    def test_document_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"a": [1, 0, 0, 0]}')
        docs = [str(path)] * (2 if command == "compose" else 1)
        assert main([command, *docs]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


class TestParser:
    """argparse parses only what the reader leaves to it, help and usage
    errors, with every command's subparser."""

    COMMANDS = ["classify", "compose", "verify", "random", "reflections"]

    @pytest.mark.parametrize("head", [[], ["-h"], ["--help"], ["classfy"], ["--eps"]])
    def test_any_other_head_builds_every_subparser(self, capsys, head):
        parser = cli_module._build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(action.choices) == self.COMMANDS
        # the reader leaves these heads to argparse, whose output names every command
        assert cli_module._read_argv(head) is None
        with pytest.raises(SystemExit):
            main(head)
        out, err = capsys.readouterr()
        usage = f"usage: rot4 [-h] {{{','.join(self.COMMANDS)}}} ...\n"
        assert parser.format_usage() == usage
        assert (out + err).startswith(usage)

    def test_unknown_command_lists_every_command(self, capsys, write_doc):
        with pytest.raises(SystemExit) as exc:
            main(["classfy", write_doc(F_DOC)])
        assert exc.value.code == 2
        choices = ", ".join(repr(c) for c in self.COMMANDS)
        want = f"error: argument command: invalid choice: 'classfy' (choose from {choices})"
        assert want in capsys.readouterr().err

    def test_extra_argument_reports_the_full_usage(self, capsys, write_doc):
        with pytest.raises(SystemExit) as exc:
            main(["classify", write_doc(F_DOC), "extra"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rot4 [-h] {classify,compose,verify,random,reflections} ...")
        assert err.endswith("error: unrecognized arguments: extra\n")


class TestReader:
    """A well-formed command line is read from the command table, without
    argparse; any other goes to argparse unchanged.  Whatever the reader
    reads, argparse parses to the same namespace, handler included; wherever
    argparse prints help or refuses, the reader has deferred to it."""

    SWITCHES = ["--json", "--normalize", "--gibbs", "--check-simple"]
    VALUED = ["--eps", "--seed", "--kind"]
    # -0e0 and -0e-3 are values that argparse reads as flags, so it exits 2
    VALUES = ["1e-6", "0", "7", "-1e-3", "-0e0", "-0e-3", "-0", "-1", "nan", "inf", "tiny", ""]
    VALUES += ["any", "simple", "sideways"]
    STRAYS = ["--js", "--", "-h", "--help", "--bogus", "-x", "--json=1", "--eps"]
    GROUPS = st.one_of(
        st.sampled_from(SWITCHES + STRAYS).map(lambda token: [token]),
        st.tuples(st.sampled_from(VALUED), st.sampled_from(VALUES)).map(list),
        st.tuples(st.sampled_from(VALUED), st.sampled_from(VALUES)).map(lambda p: ["=".join(p)]),
    )

    @staticmethod
    @st.composite
    def argvs(draw):
        commands = TestParser.COMMANDS
        command = draw(st.sampled_from(commands * 3 + ["classfy", "-h", "--json"]))
        wanted = {"compose": 2, "random": 0}.get(command, 1)
        count = draw(st.sampled_from([wanted] * 3 + [wanted + 1, max(wanted - 1, 0)]))
        doc = st.sampled_from(["f.json", "-", "", "verify"]).map(lambda token: [token])
        docs = draw(st.lists(doc, min_size=count, max_size=count))
        groups = draw(st.lists(TestReader.GROUPS, max_size=5))
        order = draw(st.permutations(docs + groups))
        return [command, *(token for group in order for token in group)]

    @staticmethod
    def _argparse(argv):
        """vars() of argparse's namespace for argv, or the code it exits with."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return vars(cli_module._build_parser().parse_args(argv))
            except SystemExit as exc:
                return exc.code

    @staticmethod
    def _same(read, parsed) -> bool:
        # repr tells -0.0 from 0.0, and one handler from another
        return repr(sorted(vars(read).items())) == repr(sorted(parsed.items()))

    @settings(derandomize=True, max_examples=800, deadline=None)
    @given(argv=argvs())
    @example(argv=["classify", "f.json", "--js"])
    @example(argv=["classify", "--eps", "-0e-3", "f.json"])
    @example(argv=["random", "--seed", "1", "--eps", "-0e0"])
    def test_reader_agrees_with_argparse(self, argv):
        read = cli_module._read_argv(argv)
        parsed = self._argparse(argv)
        if not isinstance(parsed, dict):
            assert read is None, f"argparse exited {parsed} on {argv}"
        elif read is not None:
            assert self._same(read, parsed), argv
            # an abbreviation is argparse's to resolve, or to call ambiguous
            assert "--js" not in argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--json", "f.json"],
            ["compose", "--gibbs", "--check-simple", "f.json", "g.json"],
            ["verify", "--json", "f.json"],
            ["reflections", "f.json"],
            ["random", "--seed", "7", "--kind", "simple", "--eps=1e-6", "--json"],
            ["classify", "-", "--eps", "0", "--eps=-0", "--normalize", "--json", "--json"],
            ["compose", "f.json", "--eps", "1e-9", "-"],
        ],
    )
    def test_reads_well_formed_argv(self, argv):
        read = cli_module._read_argv(argv)
        assert read is not None and self._same(read, self._argparse(argv))


class TestClosedStdout:
    """A reader that has closed stdout (rot4 ... | true) gets exit code 141
    and no traceback, whether stdout is buffered or not."""

    @staticmethod
    def _run_closed(argv, unbuffered=False):
        """rot4 argv as its console script runs it, on a pipe whose reader is
        gone before rot4 writes a byte."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-c", "from rot4.cli import entrypoint; entrypoint()", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [["classify", "F"], ["verify", "F", "--json"], ["random"]],
        ids=["classify", "verify", "random"],
    )
    def test_exits_141_quietly(self, write_doc, argv, unbuffered):
        proc = self._run_closed([write_doc(F_DOC) if a == "F" else a for a in argv], unbuffered)
        assert (proc.returncode, proc.stderr) == (cli_module.EXIT_BROKEN_PIPE, "")

    def test_help(self):
        # unbuffered, argparse itself ignores the failed write of its help and exits 0
        proc = self._run_closed(["-h"])
        assert (proc.returncode, proc.stderr) == (cli_module.EXIT_BROKEN_PIPE, "")

    def test_other_codes_stand(self):
        # nothing was written to stdout, so its closing changes nothing
        proc = self._run_closed(["classfy"])
        assert proc.returncode == 2
        assert "invalid choice: 'classfy'" in proc.stderr


class TestReflections:
    def test_golden(self, capsys, write_doc):
        code, out = run(capsys, "reflections", write_doc(F_DOC))
        assert code == 0
        doc = json.loads(out)
        ny = ReflectionNormal(Quaternion.from_array(doc["y"]))
        nz = ReflectionNormal(Quaternion.from_array(doc["z"]))
        back = from_reflections(ny, nz)
        f = Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))
        for e_arr in np.eye(4):
            e = Quaternion.from_array(e_arr)
            assert comp_diff(apply(back, e), apply(f, e)) <= 1e-9

    def test_rejects_double(self, capsys, write_doc):
        double_doc = json.dumps(
            {"a": [math.cos(0.5), math.sin(0.5), 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]}
        )
        code, _ = run(capsys, "reflections", write_doc(double_doc))
        assert code == 1

    def test_rounded_simple_factors(self, capsys, write_doc):
        path = write_doc(ROUNDED_DOC)
        code, out = run(capsys, "classify", path, "--normalize", "--json")
        assert code == 0 and json.loads(out)["kind"] == "simple"
        code, out = run(capsys, "reflections", path, "--normalize")
        assert code == 0
        doc = json.loads(out)
        back = from_reflections(
            ReflectionNormal(Quaternion.from_array(doc["y"])),
            ReflectionNormal(Quaternion.from_array(doc["z"])),
        )
        # the normals realise (a, b') with b' = S(a) + |V(a)| q for b's axis q
        a, b = (normalized(Quaternion.from_array(ROUNDED[k])) for k in ("a", "b"))
        b_prime = Quaternion(a.s, b.v * (a.v.norm() / b.v.norm()))
        assert comp_diff(back.a, a) <= 1e-12
        assert comp_diff(back.b, b_prime) <= 1e-12


class TestNumpyLoading:
    """No command loads numpy: rot4 computes in floats with the standard
    library alone.  Neither `import rot4` nor any command loads dataclasses,
    inspect or numbers, which would add their import to every start-up (the
    oracle reads numbers only for a matrix entry that is not a float).  rot4.compose
    and rot4.oracle are in sys.modules from `import rot4` on, but run their
    code only when used: rot4.compose for compose alone, rot4.oracle for
    verify alone.  A module that has run is a plain module; the check reads
    its type, since any attribute access would run it.  rot4.verify and
    rot4.sample are imported by verify and random alone.  A well-formed
    command line never imports argparse, nor gettext and locale with it;
    help and usage errors do.  Each case runs in a fresh interpreter."""

    SCRIPT = """
import sys, types
def loaded():
    watched = ("numpy", "dataclasses", "inspect", "numbers", "argparse", "gettext", "locale")
    names = [m for m in watched if m in sys.modules]
    for m in ("rot4.compose", "rot4.oracle"):
        names += [m] if type(sys.modules[m]) is types.ModuleType else []
    names += [m for m in ("rot4.verify", "rot4.sample") if m in sys.modules]
    return ",".join(names) or "-"
import rot4, rot4.cli
at_import = loaded()
try:
    code = rot4.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
except SystemExit as exc:
    code = exc.code
print(at_import, loaded(), code)
"""

    ARGPARSE = "argparse,gettext,locale"

    @pytest.mark.parametrize(
        "argv, after, code",
        [
            ([], "-", 0),
            (["classify", "F", "--json"], "-", 0),
            (["reflections", "F"], "-", 0),
            (["compose", "F", "G", "--gibbs"], "rot4.compose", 0),
            (["verify", "F"], "rot4.oracle,rot4.verify", 0),
            (["compose", "F", "G", "--check-simple"], "rot4.compose", 0),
            (["random", "--seed", "0"], "rot4.sample", 0),
            # the four command lines of the benchmark's cli workload
            (["classify", "--json", "F"], "-", 0),
            (["compose", "--gibbs", "--check-simple", "F", "G"], "rot4.compose", 0),
            (["verify", "--json", "F"], "rot4.oracle,rot4.verify", 0),
            (["-h"], ARGPARSE, 0),
            (["classify", "--help"], ARGPARSE, 0),
            (["classfy", "F"], ARGPARSE, 2),
            (["classify", "F", "--js"], ARGPARSE, 0),
        ],
        ids=[
            "import",
            "classify",
            "reflections",
            "gibbs",
            "verify",
            "check-simple",
            "random",
            "bench-classify",
            "bench-compose",
            "bench-verify",
            "help",
            "classify-help",
            "typo",
            "abbreviation",
        ],
    )
    def test_numpy_only_where_arrays_are_used(self, write_doc, argv, after, code):
        docs = {"F": write_doc(F_DOC), "G": write_doc(G_DOC)}
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *(docs.get(a, a) for a in argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["-", after, str(code)]
