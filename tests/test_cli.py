import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vlie import lattice_c2
from vlie.cli import main
from vlie.config import ConfigError, exact


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_bracket_virasoro(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--builder", "virasoro",
            "--a", "omega", "--m", "3", "--b", "omega", "--n", "-1",
        )
        assert code == 0
        assert out.strip() == "4*omega(1) + 1/2*c(-1)"

    def test_character_virasoro(self, capsys):
        code, out, _ = run(
            capsys, "character", "--builder", "virasoro",
            "--lambda", "c=1/2", "--depth", "10",
        )
        assert code == 0
        assert out.strip() == "1,0,1,1,2,2,4,4,7,8,12"

    def test_lattice_p2_dim(self, capsys):
        code, out, _ = run(capsys, "lattice", "p2", "--gram", "[[4]]", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 7

    def test_lattice_c2_set(self, capsys):
        code, out, _ = run(capsys, "lattice", "c2-set", "--gram", "[[2]]")
        assert code == 0
        assert out.strip() == "(-1) (0) (1)"

    def test_lattice_degenerate(self, capsys):
        code, out, _ = run(capsys, "lattice", "p2", "--gram", "[[-2]]", "--format", "json")
        assert code == 0
        assert json.loads(out)["zero_algebra"] is True

    def test_bk_compare(self, capsys):
        code, out, _ = run(capsys, "lattice", "bk-compare", "--gram", "[[2]]", "--k", "2")
        assert code == 0
        assert "isomorphic, dim 7" in out


class TestActAndDecompose:
    def test_act_json(self, capsys):
        state = json.dumps([[[["omega", -1]], "1"]])
        code, out, _ = run(
            capsys, "act", "--builder", "virasoro", "--lambda", "c=1/2",
            "--mode", "omega:3", "--state", state, "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["state"] == [[[], "1/4"]]

    def test_decompose_round_trip(self, capsys):
        series = json.dumps([
            {"order": 2, "coeff": {"0": "3"}},
            {"order": 0, "coeff": {"1": "1"}},
        ])
        code, out, _ = run(capsys, "decompose", "--series", series)
        assert code == 0
        assert "round trip: exact" in out

    @pytest.mark.parametrize("series, text", [
        ('[{"order":0,"coeff":{"-2":"1/3","1":"1","0":"-2"}},{"order":2,"coeff":{"3":"5"}}]',
         "(1/3*y^-2 - 2 + y)*Delta + (5*y^3)*Delta^(2)"),
        ('[{"order":1,"coeff":{"0":"0","-3":"-7/2"}},{"order":0,"coeff":{"2":"0"}}]',
         "(-7/2*y^-3)*Delta^(1)"),
        ('[{"order":0,"coeff":{"-1":"-1","-4":"2/5"}},{"order":3,"coeff":{"0":"1","1":"-1"}}]',
         "(2/5*y^-4 - y^-1)*Delta + (1 - y)*Delta^(3)"),
        ('[{"order":2,"coeff":{"0":"0"}}]', "0"),
    ])
    def test_decompose_text(self, capsys, series, text):
        # zero coefficients are dropped, exponents print in ascending order
        code, out, _ = run(capsys, "decompose", "--series", series)
        assert code == 0
        assert out == f"{text}\nround trip: exact\n"


class TestCheckSuites:
    def test_check_delta(self, capsys):
        code, out, _ = run(capsys, "check", "delta", "--samples", "10")
        assert code == 0
        assert "PASS delta.power-identities" in out

    def test_check_vla_single_builder(self, capsys):
        code, out, _ = run(
            capsys, "check", "vla", "--builder", "virasoro", "--window", "3"
        )
        assert code == 0
        assert "PASS vla.jacobi.virasoro" in out

    def test_check_lattice_gram(self, capsys):
        code, out, _ = run(capsys, "check", "lattice", "--gram", "[[2]]")
        assert code == 0
        assert "PASS lattice.axioms" in out

    def test_check_lattice_indefinite_gram_checks_the_witness(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "check", "lattice", "--gram", "[[2,3],[3,2]]")
        assert code == 0
        assert "PASS lattice.zero-algebra" in out
        # a witness of norm 2, or of norm -2 with Fraction entries, fails
        for witness in ((1, 0), (Fraction(1), Fraction(-1))):
            monkeypatch.setattr(lattice_c2, "negative_norm_witness", lambda lat, w=witness: w)
            code, out, _ = run(capsys, "check", "lattice", "--gram", "[[2,3],[3,2]]")
            assert code == 1
            assert "FAIL lattice.zero-algebra" in out

    # the algebra of each axiom check, by its Gram matrix; the rank-one
    # comparisons verify their own algebras inside bk_compare
    LATTICE_CHECKS = [
        (("--gram", "[[4,1],[1,2]]"), ((4, 1), (1, 2)), "lattice.axioms"),
        ((), ((2, -1), (-1, 2)), "lattice.a2-axioms"),
    ]

    @pytest.mark.parametrize("argv, gram, name", LATTICE_CHECKS)
    def test_check_lattice_verifies_each_algebra_once(self, capsys, monkeypatch, argv, gram, name):
        verify = lattice_c2.PLAlgebra.verify_axioms
        calls = []

        def counted(self):
            calls.append(self.lattice.gram)
            return verify(self)

        monkeypatch.setattr(lattice_c2.PLAlgebra, "verify_axioms", counted)
        code, out, _ = run(capsys, "check", "lattice", *argv)
        assert code == 0 and f"PASS {name}" in out
        assert calls.count(gram) == 1

    @pytest.mark.parametrize("argv, gram, name", LATTICE_CHECKS)
    def test_check_lattice_reports_a_failing_algebra(self, capsys, monkeypatch, argv, gram, name):
        # a failing algebra is a FAIL line with its witness, not a traceback
        verify = lattice_c2.PLAlgebra.verify_axioms
        monkeypatch.setattr(lattice_c2.PLAlgebra, "verify_axioms", lambda self: (
            ["Leibniz fails at (X, X, Y)"] if self.lattice.gram == gram else verify(self)))
        code, out, _ = run(capsys, "check", "lattice", *argv)
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] \
            == [f"FAIL {name}: Leibniz fails at (X, X, Y)"]

    def test_json_report_deterministic(self, capsys):
        code1, out1, _ = run(
            capsys, "check", "delta", "--samples", "6", "--seed", "11",
            "--format", "json",
        )
        code2, out2, _ = run(
            capsys, "check", "delta", "--samples", "6", "--seed", "11",
            "--format", "json",
        )
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["seed"] == 11
        assert all(c["pass"] for c in payload["checks"])

    def test_check_all_json(self, capsys):
        # every suite at its defaults, the delta calculus and the vp table
        # controls included
        code, out, _ = run(capsys, "check", "all", "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 29
        assert [c["name"] for c in checks if not c["pass"]] == []

    def test_borcherds_timing(self, capsys):
        request = ("borcherds-check", "--builder", "virasoro", "--lambda", "c=1/2",
                   "--window", "1", "--depth", "2")
        code, out, _ = run(capsys, *request, "--format", "json", "--timing")
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert check["name"] == "borcherds" and check["pass"] and type(check["ms"]) is int
        code, out, _ = run(capsys, *request, "--timing")
        assert code == 0
        assert out.startswith("PASS borcherds  [") and " ms]\n" in out
        # without --timing the report carries no time
        assert "ms" not in json.loads(run(capsys, *request, "--format", "json")[1])["checks"][0]

    def test_virasoro_domega_fixture(self, capsys):
        # d omega = domega through the config loader: the window checks pass
        # and the character is Virasoro's
        config = ("--builder", "config", "--config", str(DATA / "virasoro_domega.json"))
        code, out, _ = run(capsys, "check", "vla", *config, "--window", "3")
        assert code == 0
        assert "PASS vla.jacobi.config" in out and "PASS vla.skew.config" in out
        code, out, _ = run(capsys, "character", *config, "--lambda", "c=1/2", "--depth", "10")
        assert code == 0
        assert out.strip() == "1,0,1,1,2,2,4,4,7,8,12"

    def test_virasoro_domega_bad_fixture(self, capsys):
        # the omega-omega l=1 coefficient -3 in place of -2: the config
        # loader's certificate rejects it with exit 2 and one exact line
        config = ("--builder", "config", "--config", str(DATA / "virasoro_domega_bad.json"))
        code, out, err = run(capsys, "check", "vla", *config, "--window", "3")
        assert (code, out) == (2, "")
        assert err == (
            "config error: bad vertex_lie config: structure fails Lie axioms: skew fails for "
            "(omega,omega); bracket does not respect D omega = d(omega) on (omega,omega); "
            "Jacobi fails on (omega,omega,omega) at lambda^1 mu^0: -D omega\n")

    def test_vp_check(self, capsys):
        code, out, _ = run(capsys, "vp-check", "--ultra", "sl2")
        assert code == 0
        assert "PASS vp.table-skew" in out

    def test_pvpa_text(self, capsys):
        code, out, _ = run(capsys, "pvpa", "--ultra", "sl2")
        assert code == 0
        assert "{e,f} = h" in out


class TestErrorPaths:
    def test_unknown_builder_exits_2(self, capsys):
        code, _, err = run(capsys, "bracket", "--builder", "nope",
                           "--a", "x", "--m", "0", "--b", "x", "--n", "0")
        assert code == 2
        assert "unknown builder" in err

    @pytest.mark.parametrize("rank", ["x", "0", "-2", "2.5"])
    @pytest.mark.parametrize("command, argv", [
        ("bracket", ("--a", "a", "--m", "1", "--b", "a", "--n", "0")),
        ("check vla", ("--window", "1")),  # rank 0 or -2 passed on c alone
    ])
    def test_heisenberg_rank_is_a_positive_integer(self, capsys, rank, command, argv):
        code, out, err = run(capsys, *command.split(), "--builder", f"heisenberg:{rank}", *argv)
        assert (code, out) == (2, "")
        assert err == f"config error: the heisenberg rank must be a positive integer: {rank!r}\n"

    def test_bad_gram_json_exits_2(self, capsys):
        code, _, err = run(capsys, "lattice", "p2", "--gram", "[[oops")
        assert code == 2

    def test_float_rejected(self, capsys):
        code, _, err = run(capsys, "lattice", "p2", "--gram", "[[2.0]]")
        assert code == 2

    def test_usage_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "not-a-suite")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("act", "--builder", "virasoro", "--mode", "foo:3", "--state", '[[[], "1"]]'),
         "config error:"),
        (("bracket", "--builder", "virasoro", "--a", "omega", "--m", "1", "--b", "zzz",
          "--n", "0"), "config error:"),
        (("lattice", "c2-set", "--gram", "[[2,1]]"), "config error:"),
        (("lattice", "c2-set", "--gram", "[[3]]"), "config error:"),
        (("character", "--builder", "virasoro"), "config error:"),
        (("check", "vla", "--window", "-1"), "nonnegative"),
        (("check", "vacuum", "--depth", "-1"), "nonnegative"),
        (("check", "delta", "--samples", "-1"), "nonnegative"),
        (("borcherds-check", "--builder", "virasoro", "--lambda", "c=1/2", "--window", "-1"),
         "nonnegative"),
        (("character", "--builder", "virasoro", "--lambda", "c=1/2", "--depth", "-1"),
         "nonnegative"),
        (("lattice", "bk-compare", "--k", "0"), "positive"),
        (("decompose", "--series", '[{"order":0,"coeff":{"1":"1"}}]', "--k", "-1"),
         "nonnegative"),
        (("decompose", "--series", '[{"order":-1,"coeff":{"0":"1"}}]'), "config error:"),
        (("lattice", "poisson", "--gram", "[]"), "config error: bad Gram matrix: "),
        (("lattice", "p2", "--gram", "[]"), "config error: bad Gram matrix: "),
        (("lattice", "c2-set", "--gram", "[]"), "config error: bad Gram matrix: "),
        (("borcherds-check", "--builder", "affine-sl2", "--lambda", "c=1", "--a", "[]"),
         "config error: --a and --b must be nonzero states"),
        (("borcherds-check", "--builder", "affine-sl2", "--lambda", "c=1", "--b", "[]"),
         "config error: --a and --b must be nonzero states"),
        (("borcherds-check", "--builder", "virasoro", "--lambda", "c=1/2",
          "--a", '[[[["omega", -1]], "0"]]'), "config error: --a and --b must be nonzero states"),
        (("check", "lattice", "--gram", "[[2,2],[2,2]]"),
         "config error: degenerate Gram matrix is out of scope"),
        # complements are always derived, so a config that names them is refused
        (("bracket", "--builder", "config", "--config", str(DATA / "witt_u_prime.json"),
          "--a", "omega", "--m", "1", "--b", "omega", "--n", "0"), "config error: 'u_prime'"),
        (("bracket", "--builder", "config", "--config", str(DATA / "witt_u0_prime.json"),
          "--a", "omega", "--m", "1", "--b", "omega", "--n", "0"), "config error: 'u0_prime'"),
    ])
    def test_bad_input_exits_2(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert message in err

    def test_degenerate_gram_exits_2(self, capsys):
        for action in ("p2", "poisson"):
            code, _, err = run(capsys, "lattice", action, "--gram", "[[2,2],[2,2]]")
            assert code == 2
            assert "degenerate" in err

    @pytest.mark.parametrize("matrix, message", [
        ("[[1,2],[3]]", "--heis-matrix must be a nonempty square matrix"),  # was an IndexError
        ("[1,2]", "--heis-matrix must be a nonempty square matrix"),        # was a TypeError
        ('[["a"]]', "Invalid literal for Fraction: 'a'"),                    # was exit 1
        ("[]", "--heis-matrix must be a nonempty square matrix"),  # exit 1, or an empty algebra
    ])
    def test_malformed_heis_matrix_exits_2(self, capsys, matrix, message):
        for command in ("vp-check", "pvpa"):
            code, out, err = run(capsys, command, "--heis-matrix", matrix)
            assert (code, out) == (2, "")
            assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        # printed (1/2*y)*Delta and exited 0
        (("decompose", "--series", '[{"order":0,"coeff":{"1":0.5}}]'),
         "floating point is not accepted: 0.5"),
        # read as order 1 and exited 0
        (("decompose", "--series", '[{"order":1.0,"coeff":{"0":"1"}}]'),
         "floating point is not accepted: 1.0"),
        (("decompose", "--series", '[{"order":true,"coeff":{"0":"1"}}]'),
         "bad series spec: a boolean is not a number: True"),
        (("decompose", "--series", '[{"order":0,"coeff":{"0":true}}]'),
         "bad series spec: a boolean is not a number: True"),
        # named a Gram matrix
        (("pvpa", "--heis-matrix", ""), "bad --heis-matrix JSON: Expecting value"),
        (("vp-check", "--heis-matrix", "5"), "--heis-matrix must be a nonempty square matrix"),
        (("pvpa", "--heis-matrix", '{"u1": 1}'), "--heis-matrix must be a nonempty square matrix"),
    ])
    def test_exact_json_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv, value", [
        # printed omega(-2)1 and exited 0
        (("act", "--builder", "virasoro", "--lambda", "c=1/2", "--mode", "omega:-2",
          "--state", "[[[],true]]"), "True"),
        # passed as the matrix [[1]]
        (("vp-check", "--heis-matrix", "[[true]]"), "True"),
        (("pvpa", "--heis-matrix", "[[1,false],[0,1]]"), "False"),
    ])
    def test_boolean_is_not_a_number(self, capsys, argv, value):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert err.endswith(f"a boolean is not a number: {value}\n")

    @pytest.mark.parametrize("gram, entry", [
        ("[[2,true],[true,2]]", "True"),  # printed the A2 results and exited 0
        ('[["2"]]', "'2'"),               # built a rank-1 algebra
        ('[[2,1],[1,"4"]]', "'4'"),
        ("[[null]]", "None"),
    ])
    @pytest.mark.parametrize("action", ["p2", "c2-set", "poisson"])
    def test_gram_entries_are_json_integers(self, capsys, action, gram, entry):
        code, out, err = run(capsys, "lattice", action, "--gram", gram)
        assert (code, out) == (2, "")
        assert err == f"config error: bad Gram matrix: entry {entry} is not an integer\n"

    def test_boolean_in_a_config_file_exits_2(self, tmp_path, capsys):
        config = {"vertex_lie": {
            "basis": [{"name": "omega", "degree": 2}], "d": {"domain": []},
            "brackets": [{"a": "omega", "b": "omega",
                          "terms": [{"f": [["omega", True]], "k": 1, "l": 0}]}]}}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "bracket", "--builder", "config", "--config", str(path),
                             "--a", "omega", "--m", "0", "--b", "omega", "--n", "0")
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert err.endswith("a boolean is not a number: True\n")
        assert exact(1) == 1 and exact("-1/2") == Fraction(-1, 2)
        with pytest.raises(ConfigError, match="a boolean is not a number: False"):
            exact(False)


class TestBkCompareControls:
    """A presentation that differs from the lattice algebra in one bracket
    sign or in one product must be reported as a mismatch, exit 1."""

    def test_flipped_bracket_sign_is_a_mismatch(self, capsys, monkeypatch):
        bracket = lattice_c2.BkAlgebra.bracket_basis

        def flipped(self, a, b):
            out = bracket(self, a, b)
            return {key: -c for key, c in out.items()} if (a, b) == (("Z", 1), ("X", 0)) else out
        monkeypatch.setattr(lattice_c2.BkAlgebra, "bracket_basis", flipped)
        code, out, _ = run(capsys, "lattice", "bk-compare", "--k", "2")
        assert code == 1
        # {X, Z} is read off {Z, X}, so both orders differ
        assert out == ("MISMATCH: bracket mismatch at {('Z', 1),('X', 0)}; "
                       "bracket mismatch at {('X', 0),('Z', 1)}\n")

    def test_wrong_xy_product_is_a_mismatch(self, capsys, monkeypatch):
        product = lattice_c2.BkAlgebra.multiply_basis

        def doubled(self, a, b):
            out = product(self, a, b)
            return {key: 2 * c for key, c in out.items()} if (a, b) == (("X", 0), ("Y", 0)) else out
        monkeypatch.setattr(lattice_c2.BkAlgebra, "multiply_basis", doubled)
        code, out, _ = run(capsys, "lattice", "bk-compare", "--k", "3")
        assert code == 1
        assert out == "MISMATCH: product mismatch at ('X', 0) * ('Y', 0)\n"


class TestConfigFile:
    def test_vertex_lie_from_file(self, tmp_path, capsys):
        config = {
            "vertex_lie": {
                "name": "witt-copy",
                "basis": [{"name": "omega", "degree": 2}],
                "d": {"domain": []},
                "brackets": [
                    {"a": "omega", "b": "omega",
                     "terms": [{"f": [["omega", "1"]], "k": 1, "l": 0},
                               {"f": [["omega", "-2"]], "k": 0, "l": 1}]}
                ],
            }
        }
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(
            capsys, "bracket", "--builder", "config", "--config", str(path),
            "--a", "omega", "--m", "2", "--b", "omega", "--n", "0",
        )
        assert code == 0
        assert out.strip() == "2*omega(1)"

    def test_affine_from_lie_algebra_config(self, tmp_path, capsys):
        config = {
            "lie_algebra": {
                "basis": ["e", "h", "f"],
                "brackets": [
                    ["h", "e", [["e", "2"]]],
                    ["h", "f", [["f", "-2"]]],
                    ["e", "f", [["h", "1"]]],
                ],
                "form": [["0", "0", "1"], ["0", "2", "0"], ["1", "0", "0"]],
            }
        }
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(
            capsys, "bracket", "--builder", "affine:config", "--config", str(path),
            "--a", "e", "--m", "1", "--b", "f", "--n", "-1",
        )
        assert code == 0
        assert out.strip() == "h(0) + c(-1)"

    @pytest.mark.parametrize("builder, lie_algebra, message", [
        # both exited 1 with an "error:" line
        ("loop:config", {"basis": ["e", "h", "e"], "brackets": []},
         "duplicate basis names"),
        ("affine:config", {"basis": ["e", "h", "f"],
                           "brackets": [["h", "e", [["e", "2"]]], ["h", "f", [["f", "-2"]]],
                                        ["e", "f", [["h", "1"]]]],
                           "form": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
         "form is not invariant: "),
    ])
    def test_lie_algebra_the_builder_rejects_exits_2(self, tmp_path, capsys, builder,
                                                      lie_algebra, message):
        path = tmp_path / "lie.json"
        path.write_text(json.dumps({"lie_algebra": lie_algebra}))
        code, out, err = run(capsys, "check", "vla", "--builder", builder, "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: bad lie_algebra config: {message}")
        assert err.count("\n") == 1

    CENTRAL_ONLY = {"vertex_lie": {"basis": [{"name": "c", "degree": 0}],
                                   "d": {"domain": ["c"]}, "brackets": []}}
    EMPTY_LIE = {"lie_algebra": {"basis": [], "brackets": []}}

    @pytest.mark.parametrize("config, argv, message", [
        # a structure on c alone has no complement generator for the default
        # states: both raised IndexError
        pytest.param(CENTRAL_ONLY, ("check", "vacuum", "--builder", "config"),
                     "the structure has no complement generator for the default states",
                     id="central-check-vacuum"),
        pytest.param(CENTRAL_ONLY, ("borcherds-check", "--builder", "config", "--lambda", "c=1"),
                     "the structure has no complement generator for the default states",
                     id="central-borcherds-check"),
        # an empty basis: check vla passed vacuously, check vacuum raised IndexError
        pytest.param(EMPTY_LIE, ("check", "vla", "--builder", "loop:config"),
                     "bad lie_algebra config: the basis is empty", id="empty-loop-check-vla"),
        pytest.param({"lie_algebra": {**EMPTY_LIE["lie_algebra"], "form": []}},
                     ("check", "vla", "--builder", "affine:config"),
                     "bad lie_algebra config: the basis is empty", id="empty-affine-check-vla"),
        pytest.param(EMPTY_LIE, ("check", "vacuum", "--builder", "loop:config"),
                     "bad lie_algebra config: the basis is empty", id="empty-loop-check-vacuum"),
    ])
    def test_structures_without_generators_exit_2(self, tmp_path, capsys, config, argv,
                                                   message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    def test_u0_mismatch_rejected(self, tmp_path, capsys):
        config = {
            "vertex_lie": {
                "basis": [{"name": "a", "degree": 1}],
                "d": {"domain": []},
                "u0": ["a"],
                "brackets": [],
            }
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, _, err = run(
            capsys, "bracket", "--builder", "config", "--config", str(path),
            "--a", "a", "--m", "0", "--b", "a", "--n", "0",
        )
        assert code == 2
        assert "u0" in err

    @pytest.mark.parametrize("matrix", [
        [["0", "0"], ["0", "0"]],  # a row more than the domain
        [],                        # the domain's row is missing
        [["0"]],                   # a row shorter than the basis
    ])
    def test_malformed_d_matrix_exits_2(self, tmp_path, capsys, matrix):
        config = {
            "vertex_lie": {
                "basis": [{"name": "a", "degree": 1}, {"name": "c", "degree": 0}],
                "d": {"domain": ["c"], "matrix": matrix},
                "brackets": [],
            }
        }
        path = tmp_path / "bad_d.json"
        path.write_text(json.dumps(config))
        code, _, err = run(
            capsys, "bracket", "--builder", "config", "--config", str(path),
            "--a", "a", "--m", "0", "--b", "a", "--n", "0",
        )
        assert code == 2
        assert "d.matrix" in err

    def test_integer_fields_refuse_booleans(self, tmp_path, capsys):
        # "k": true loaded as k = 1; integer strings keep working
        def terms(k):
            return {"vertex_lie": {
                "basis": [{"name": "omega", "degree": "2"}], "d": {"domain": []},
                "brackets": [{"a": "omega", "b": "omega",
                              "terms": [{"f": [["omega", "1"]], "k": k, "l": 0},
                                        {"f": [["omega", "-2"]], "k": 0, "l": "1"}]}]}}

        argv = ("--a", "omega", "--m", "2", "--b", "omega", "--n", "0")
        path = tmp_path / "witt.json"
        path.write_text(json.dumps(terms("1")))
        assert run(capsys, "bracket", "--builder", "config", "--config", str(path), *argv) \
            == (0, "2*omega(1)\n", "")
        path.write_text(json.dumps(terms(True)))
        code, out, err = run(capsys, "bracket", "--builder", "config", "--config", str(path), *argv)
        assert (code, out, err) == (2, "", "config error: a boolean is not a number: True\n")

    def test_integer_fields_refuse_toml_floats(self, tmp_path, capsys):
        # TOML floats reach the loader, where int() truncated them
        pytest.importorskip("tomllib")

        def request(degree, k):
            path = tmp_path / "witt.toml"
            path.write_text(
                "[vertex_lie]\n"
                f'basis = [{{ name = "omega", degree = {degree} }}]\n'
                "d = { domain = [] }\n"
                "[[vertex_lie.brackets]]\n"
                'a = "omega"\n'
                'b = "omega"\n'
                f'terms = [{{ f = [["omega", "1"]], k = {k}, l = 0 }},'
                ' { f = [["omega", "-2"]], k = 0, l = 1 }]\n')
            return run(capsys, "bracket", "--builder", "config", "--config", str(path),
                       "--a", "omega", "--m", "2", "--b", "omega", "--n", "0")

        assert request(2, 1) == (0, "2*omega(1)\n", "")
        for degree, k, value in ((2.9, 1, 2.9), (2, 1.7, 1.7)):
            assert request(degree, k) == (
                2, "", f"config error: floating point is not accepted: {value}\n")


def fresh_process(*argv):
    """Exit code, stdout and stderr of the request in a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "vlie.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


class TestParserReuse:
    """``main`` builds its parser once and reuses it for every request."""

    def test_lambda_default_does_not_accumulate(self, capsys):
        with_lambda = ("character", "--builder", "virasoro", "--lambda", "c=1/2", "--depth", "3")
        first = run(capsys, *with_lambda)
        assert first[0] == 0
        assert run(capsys, *with_lambda) == first
        # an append default that kept c=1/2 would let the bare request pass
        bare = ("character", "--builder", "virasoro", "--depth", "3")
        assert run(capsys, *bare) == fresh_process(*bare)

    def test_parse_error_leaves_no_trace(self, capsys):
        code, _, err = run(capsys, "lattice", "poisson", "--gram")
        assert code == 2
        assert "expected one argument" in err
        request = ("lattice", "poisson", "--gram", "[[4]]", "--format", "json")
        assert run(capsys, *request) == fresh_process(*request)


DOMEGA = str(DATA / "virasoro_domega.json")
# a valid request of every subcommand
REQUESTS = {
    "check": ("check", "delta", "--samples", "2"),
    "bracket": ("bracket", "--builder", "virasoro", "--a", "omega", "--m", "1",
                "--b", "omega", "--n", "0"),
    "character": ("character", "--builder", "virasoro", "--lambda", "c=1/2", "--depth", "3"),
    "act": ("act", "--builder", "witt", "--mode", "omega:-1", "--state", '[[[],"1"]]'),
    "borcherds-check": ("borcherds-check", "--builder", "witt", "--window", "1", "--depth", "2"),
    "p2": ("p2", "--builder", "witt"),
    "vp-check": ("vp-check", "--ultra", "sl2"),
    "pvpa": ("pvpa", "--ultra", "sl2"),
    "lattice": ("lattice", "poisson", "--gram", "[[2]]"),
    "decompose": ("decompose", "--series", '[{"order":0,"coeff":{"1":"1"}}]'),
}
FLAGS = {"--format": ("--format", "json"), "--seed": ("--seed", "5"), "--timing": ("--timing",),
         "--config": ("--config", DOMEGA)}
REMOVED_SLOTS = [(command, "--config") for command in ("vp-check", "pvpa", "lattice", "decompose")]
REMOVED_SLOTS += [(command, flag)
                  for command in ("bracket", "character", "act", "p2", "pvpa", "lattice", "decompose")
                  for flag in ("--seed", "--timing")]
KEPT_SLOTS = [(command, "--format") for command in REQUESTS]
KEPT_SLOTS += [(command, flag) for command in ("check", "borcherds-check", "vp-check")
               for flag in ("--seed", "--timing")]
KEPT_SLOTS += [(command, "--config") for command in ("check", "bracket", "character", "act",
                                                     "borcherds-check", "p2")]
# the --config requests read the file through the config builder, a
# structure on omega, domega = d(omega) and c
CONFIG_REQUESTS = {
    "check": ("check", "vla", "--window", "1"),
    "bracket": ("bracket", "--a", "omega", "--m", "1", "--b", "domega", "--n", "0"),
    "character": ("character", "--lambda", "c=1/2", "--depth", "3"),
    "act": ("act", "--lambda", "c=1/2", "--mode", "omega:-1", "--state", '[[[],"1"]]'),
    "borcherds-check": ("borcherds-check", "--lambda", "c=1/2", "--window", "1", "--depth", "2"),
    "p2": ("p2", "--lambda", "c=1/2"),
}


class TestFlagSlots:
    """Each subcommand accepts only the flags it reads: --format on all,
    --builder, --config and --lambda on the builder commands, and --seed and
    --timing on the commands that emit a report.  Any other flag is a usage
    error, exit 2 with nothing on stdout."""

    def test_slot_counts(self):
        assert (len(set(REMOVED_SLOTS)), len(set(KEPT_SLOTS))) == (18, 22)
        assert len(REQUESTS) * 4 == 18 + 22

    @pytest.mark.parametrize("command, flag", REMOVED_SLOTS,
                             ids=[" ".join(slot) for slot in REMOVED_SLOTS])
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag):
        code, out, err = run(capsys, *REQUESTS[command], *FLAGS[flag])
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command, flag", KEPT_SLOTS,
                             ids=[" ".join(slot) for slot in KEPT_SLOTS])
    def test_kept_flag_parses(self, capsys, command, flag):
        if flag == "--config":
            argv = (*CONFIG_REQUESTS[command], "--builder", "config", *FLAGS[flag])
        else:
            argv = (*REQUESTS[command], *FLAGS[flag])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out


    @pytest.mark.parametrize("command", ["vp-check", "pvpa"])
    def test_both_tables_are_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, command, "--ultra", "sl2", "--heis-matrix", "[[1]]")
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("command", ["vp-check", "pvpa"])
    def test_a_table_is_required(self, capsys, command):
        assert run(capsys, command)[:2] == (2, "")
        code, out, err = run(capsys, command, "--ultra", "so3")
        assert (code, out) == (2, "")
        assert "invalid choice" in err

    @pytest.mark.parametrize("argv", [
        # a name that is no central generator was ignored: exit 0
        ("borcherds-check", "--builder", "witt", "--lambda", "c=1"),
        ("p2", "--builder", "witt", "--lambda", "c=1"),
        ("character", "--builder", "virasoro", "--lambda", "c=1/2", "--lambda", "zz=3"),
        # c left out: check vacuum exited 1, p2 exited 1 on a bare KeyError
        ("check", "vacuum", "--builder", "virasoro", "--lambda", "d=1"),
        ("character", "--builder", "virasoro", "--lambda", "d=1"),
        ("p2", "--builder", "virasoro", "--lambda", "d=1"),
    ], ids=" ".join)
    def test_central_character_outside_the_structure_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1
