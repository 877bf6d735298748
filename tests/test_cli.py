import hashlib
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import nakarep
from nakarep import (
    CLOSED,
    OPEN,
    Interval,
    KupischSeries,
    ParseError,
    PiecewiseMap,
    associated_kupisch,
    push_forward,
)
from nakarep.cli import (
    DISPATCH,
    LIBRARY_OPERATIONS,
    _MAX_DIGITS,
    format_profile,
    fraction_to_decimal,
    parse_homeo_text,
    parse_interval,
    parse_profile_text,
    parse_rational,
    run,
)

KAPPA2 = """\
# two half-slope pieces
space circle
piece [0/1, 1/2) affine 1/2 1/4
piece [1/2, 1/1) affine 1/2 1/2
"""

HALF_CIRCLE = """\
space circle
piece [0/1, 1/1) affine 1/1 1/2
"""

TRANSLATION = """\
space line (-inf, +inf)
piece (-inf, +inf) affine 1/1 1/1
"""

BAD_PROFILE = """\
space line [0/1, 1/1]
piece [0/1, 1/1) affine 1/1 1/1
"""

UNIT_SHRINK = """\
space line [0/1, 1/1)
piece [0/1, 1/1) affine 1/2 1/2
"""

UNIT_TO_HALF_HOMEO = """\
homeo [0/1, 1/1) -> [0/1, +inf)
piece [0/1, 1/1) mobius 1 0 -1 1
"""

ROTATION_HOMEO = """\
homeo circle
piece [0/1, 1/1) affine 1/1 1/8
"""

CHAIN_HOMEO = """\
homeo circle
piece [0/1, 1/3) mobius 1/2 0/1 -1/1 2/3
piece [1/3, 1/1) affine 3/4 1/4
"""

CHAIN_LINK_12 = """\
space circle
piece [0/1, 16600069/16777216) affine 0/1 1/1
piece [16600069/16777216, 1/1) affine 0/1 16600069/8388608
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "kappa2": write("kappa2.txt", KAPPA2),
        "half": write("half.txt", HALF_CIRCLE),
        "translation": write("translation.txt", TRANSLATION),
        "bad": write("bad.txt", BAD_PROFILE),
        "unit": write("unit.txt", UNIT_SHRINK),
        "unit_to_half": write("unit_to_half.txt", UNIT_TO_HALF_HOMEO),
        "rotation": write("rotation.txt", ROTATION_HOMEO),
        "write": write,
    }


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLiterals:
    def test_interval_round_trip(self):
        for text in ["[0/1, 2/1]", "(1/3, 4/3]", "[1/4, 1/2)", "(0/1, 1/1)"]:
            assert str(parse_interval(text)) == text

    def test_integer_shorthand(self):
        assert parse_interval("[0, 2]") == parse_interval("[0/1, 2/1]")

    def test_whitespace_insensitive(self):
        assert parse_interval(" ( 1/3 ,4/3 ] ") == Interval(F(1, 3), F(4, 3), OPEN, CLOSED)

    def test_decimal_rendering(self):
        assert fraction_to_decimal(F(1, 3), 6) == "0.333333"
        assert fraction_to_decimal(F(-1, 2), 2) == "-0.50"
        assert fraction_to_decimal(F(7), 0) == "7"


class TestProfileFiles:
    def test_round_trip(self, files):
        for text in (KAPPA2, HALF_CIRCLE, TRANSLATION, UNIT_SHRINK):
            prof = parse_profile_text(text)
            assert parse_profile_text(format_profile(prof)) == prof

    def test_round_trip_tall_coefficients(self):
        # twelve links of the chain along one two-piece circle homeomorphism
        # add about 2 bits of coefficient height per link; the texts of link
        # 12 are those of the Fraction-coefficient implementation
        f = parse_homeo_text(CHAIN_HOMEO)
        series = associated_kupisch(KupischSeries((3, 2, 2)))
        kappa2 = parse_profile_text(KAPPA2)
        for _ in range(12):
            series, kappa2 = push_forward(series, f), push_forward(kappa2, f)
        for prof in (series, kappa2):
            assert parse_profile_text(format_profile(prof)) == prof
        assert format_profile(series) == CHAIN_LINK_12
        digest = hashlib.sha256(format_profile(kappa2).encode()).hexdigest()
        assert digest == "7c200269bcded90016b046a70e928cee127c3fc6e2d0c68b5bf96d44c4dc2c8b"
        assert len(kappa2.successor.pieces) == 16

    def test_comments_ignored(self):
        prof = parse_profile_text(KAPPA2)
        assert len(prof.successor.pieces) == 2

    def test_parse_error_reports_line(self):
        with pytest.raises(Exception) as exc:
            parse_profile_text("space circle\npiece [0/1, 1/1) affine oops 1", "prof.txt")
        assert "prof.txt:2" in str(exc.value)


class TestCommands:
    def test_seps(self, files, capsys):
        code, out, _ = invoke(capsys, "seps", files["kappa2"])
        assert code == 0
        assert out == "0/1, 1/2\n"

    def test_validate_ok(self, files, capsys):
        code, out, _ = invoke(capsys, "validate", files["kappa2"])
        assert code == 0 and out.strip() == "valid"

    def test_validate_failure_exit_code(self, files, capsys):
        code, out, _ = invoke(capsys, "validate", files["bad"])
        assert code == 1
        assert "right-closed" in out

    def test_hom(self, files, capsys):
        code, out, _ = invoke(capsys, "hom", "circle", "[0,3/2]", "[0,3/2]")
        assert code == 0 and out.strip() == "2"

    def test_end_and_brick(self, files, capsys):
        code, out, _ = invoke(capsys, "end", "circle", "[0,5/2]")
        assert code == 0 and out.strip() == "3"
        code, out, _ = invoke(capsys, "brick", "circle", "[0,1)")
        assert code == 0 and out.strip() == "true"

    def test_morphism(self, files, capsys):
        code, out, _ = invoke(capsys, "morphism", "[1,3]", "[0,2]")
        assert code == 0
        assert "image:    [1/1, 2/1]" in out
        assert "kernel:   (2/1, 3/1]" in out
        assert "cokernel: [0/1, 1/1)" in out

    def test_compat(self, files, capsys):
        code, out, _ = invoke(capsys, "compat", files["translation"], "[0,1]", "--projective")
        assert code == 0
        assert out.splitlines() == ["true", "projective: true"]

    def test_components(self, files, capsys):
        code, out, _ = invoke(capsys, "components", files["kappa2"], "--of", "[1/8,1/4]")
        assert code == 0
        assert "component of [1/8,1/4]: 0" in out

    def test_resolve_staircase(self, files, capsys, tmp_path):
        lines = ["space circle", "piece [0/1, 1/13) affine 0/1 1/2"]
        for n in range(12, 3, -1):
            lines.append(f"piece [1/{n + 1}, 1/{n}) affine 0/1 {n}/{n - 1}")
        lines.append("piece [1/4, 1/1) affine 0/1 3/2")
        path = files["write"]("findim.txt", "\n".join(lines) + "\n")
        code, out, _ = invoke(capsys, "resolve", path, "(1/5,1/4]", "--cap", "64")
        assert code == 0
        assert out.splitlines()[0] == "Finite(3)"

    def test_resolve_cap_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("NAKAREP_CAP", "2")
        code, out, _ = invoke(capsys, "resolve", files["half"], "(0,1/4]")
        assert code == 0
        assert out.splitlines()[0] == "ExceededCap(2)"

    def test_pushforward_output_parses(self, files, capsys):
        code, out, _ = invoke(capsys, "pushforward", files["unit"], files["unit_to_half"])
        assert code == 0
        prof = parse_profile_text(out)
        assert format_profile(prof) == out

    def test_conjugate(self, files, capsys):
        code, out, _ = invoke(
            capsys, "conjugate", files["rotation"], files["kappa2"], files["kappa2"]
        )
        assert code == 0 and out.strip() == "false"

    def test_normalize(self, files, capsys):
        code, out, _ = invoke(capsys, "normalize", files["unit"])
        assert code == 0
        assert "space line [0/1, +inf)" in out
        assert "homeo [0/1, 1/1) -> [0/1, +inf)" in out

    def test_series_profile(self, files, capsys):
        code, out, _ = invoke(capsys, "series-profile", "3,3,2")
        assert code == 0
        assert out.splitlines() == [
            "space circle",
            "piece [0/1, 1/3) affine 0/1 1/1",
            "piece [1/3, 1/1) affine 0/1 4/3",
        ]

    def test_embed_extract(self, files, capsys):
        code, out, _ = invoke(capsys, "embed", "3,3,2", "1,1")
        assert code == 0 and out.strip() == "(1/3, 2/3]"
        code, out, _ = invoke(capsys, "extract", "3,3,2", "(1/3, 1]")
        assert code == 0 and out.strip() == "1,2"

    def test_embed_hom_comparison(self, files, capsys):
        code, out, _ = invoke(capsys, "embed", "3,3,2", "0,3", "--hom-to", "0,1")
        assert code == 0
        assert "discrete hom:   1" in out
        assert "continuous hom: 1" in out

    def test_algdim(self, files, capsys):
        code, out, _ = invoke(capsys, "algdim", "3,3,2")
        assert code == 0 and out.strip() == "8"

    def test_export_plot(self, files, capsys):
        code, out, _ = invoke(capsys, "export-plot", files["half"], "--samples", "3")
        assert code == 0
        assert out.splitlines() == [
            "t,K,kappa",
            "0.000000,0.500000,0.500000",
            "0.333333,0.833333,0.500000",
            "0.666667,1.166667,0.500000",
        ]

    def test_export_plot_jump_at_breakpoint(self, files, capsys):
        # sampling across 1/3 must show the jump between the two constant
        # successor values of the profile of the series (3, 3, 2)
        path = files["write"](
            "series332.txt",
            "space circle\npiece [0/1, 1/3) affine 0/1 1/1\npiece [1/3, 1/1) affine 0/1 4/3\n",
        )
        code, out, _ = invoke(capsys, "export-plot", path, "--samples", "6", "--digits", "4")
        assert code == 0
        rows = [r.split(",") for r in out.splitlines()[1:]]
        ts = [r[0] for r in rows]
        kappas = [r[2] for r in rows]
        assert ts[1] == "0.1667" and kappas[1] == "0.8333"  # 1 - 1/6
        assert ts[2] == "0.3333" and kappas[2] == "1.0000"  # 4/3 - 1/3
        assert ts[3] == "0.5000" and kappas[3] == "0.8333"  # 4/3 - 1/2

    def test_export_plot_staircase(self, files, capsys, tmp_path):
        lines = ["space circle", "piece [0/1, 1/13) affine 0/1 1/2"]
        for n in range(12, 3, -1):
            lines.append(f"piece [1/{n + 1}, 1/{n}) affine 0/1 {n}/{n - 1}")
        lines.append("piece [1/4, 1/1) affine 0/1 3/2")
        path = files["write"]("findim_plot.txt", "\n".join(lines) + "\n")
        code, out, _ = invoke(capsys, "export-plot", path, "--samples", "5", "--digits", "4")
        assert code == 0
        rows = [r.split(",") for r in out.splitlines()[1:]]
        # samples at 1/5 and 2/5 land on the n=4 piece and in the 3/2 plateau
        assert rows[1][1] == "1.3333" and rows[2][1] == "1.5000"

    def test_export_plot_unbounded_domain_rejected(self, files, capsys):
        code, _, err = invoke(capsys, "export-plot", files["translation"])
        assert code == 3

    def test_info(self, files, capsys):
        code, out, _ = invoke(
            capsys, "info", files["kappa2"], "--at", "1/4", "--orbit", "2"
        )
        assert code == 0
        assert "K(1/4) = 3/8, kappa = 1/8" in out
        assert "orbit: 1/4, 3/8, 7/16" in out


class TestErrors:
    def test_parse_error_exit_2(self, files, capsys):
        code, _, err = invoke(capsys, "hom", "circle", "[0,notanumber]", "[0,1]")
        assert code == 2
        assert "parse error" in err

    def test_math_error_exit_3(self, files, capsys):
        code, _, err = invoke(capsys, "morphism", "[0,2]", "[1,3]")
        assert code == 3
        assert "InvalidMorphism" in err

    @pytest.mark.parametrize("literal", ["1e400", "1.5", "1_0", "1" * 5000 + "/3"])
    def test_rational_grammar(self, files, capsys, literal):
        # integers and p/q only, bounded in digits, checked before arithmetic
        code, out, err = invoke(capsys, "hom", "circle", f"[0,{literal}]", "[0,1]")
        assert (code, out) == (2, "")
        assert "parse error" in err

    def test_rational_digit_bound(self):
        assert parse_rational("9" * _MAX_DIGITS) == 10**_MAX_DIGITS - 1
        with pytest.raises(ParseError):
            parse_rational("1/" + "9" * (_MAX_DIGITS + 1))
        with pytest.raises(ParseError):
            parse_rational("1/0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["series-profile", "3,3,2_0"],
            ["embed", "3,3,2", "0,0_3"],
            ["export-plot", "half", "--samples", "1_0"],
            ["morphism", "[0,1]", "[0,1]", "--shift", "1_0"],
        ],
    )
    def test_integer_grammar(self, files, capsys, argv):
        # integer literals follow the rational grammar without /q
        code, out, err = invoke(capsys, *(files["half"] if a == "half" else a for a in argv))
        assert (code, out) == (2, "")
        assert "parse error" in err

    @pytest.mark.parametrize("cap", ["abc", "-5", "4097"])
    def test_cap_env_grammar(self, files, capsys, monkeypatch, cap):
        monkeypatch.setenv("NAKAREP_CAP", cap)
        code, out, err = invoke(capsys, "resolve", files["half"], "(0,1/4]")
        assert (code, out) == (2, "")
        assert "parse error" in err and "NAKAREP_CAP" in err

    def test_samples_bound(self, files, capsys, monkeypatch):
        import nakarep.cli as cli

        def no_samples(*_):
            raise AssertionError("samples built for a rejected count")

        with monkeypatch.context() as m:
            m.setattr(cli, "export_plot", no_samples)
            code, out, err = invoke(capsys, "export-plot", files["half"], "--samples", "10001")
        assert (code, out) == (2, "")
        assert "parse error" in err and "at most 10000" in err
        code, out, _ = invoke(capsys, "export-plot", files["half"], "--samples", "10000")
        assert code == 0
        assert len(out.splitlines()) == 1 + 10000
        assert "at most 10000" in invoke(capsys, "export-plot", "--help")[1]

    @pytest.mark.parametrize(
        "argv, done",
        [
            (["info", "translation", "--at", "0", "--orbit"], "orbit: 0/1, 1/1, 2/1"),
            (["resolve", "translation", "[0,1/4]", "--cap"], "ExceededCap(4096)"),
        ],
        ids=["orbit", "cap"],
    )
    def test_step_bound(self, files, capsys, monkeypatch, argv, done):
        # a count past the bound is a parse error before any step is taken
        import nakarep.cli as cli

        argv = [files["translation"] if a == "translation" else a for a in argv]

        def no_steps(*_, **__):
            raise AssertionError("stepped for a rejected count")

        with monkeypatch.context() as m:
            m.setattr(cli, "orbit", no_steps)
            m.setattr(cli, "projective_resolution", no_steps)
            for count in ("4097", "100000000"):
                code, out, err = invoke(capsys, *argv, count)
                assert (code, out) == (2, "")
                assert "parse error" in err and "expected at most 4096," in err
        code, out, _ = invoke(capsys, *argv, "4096")
        assert code == 0
        assert done in out
        if argv[0] == "info":
            assert out.splitlines()[-1].endswith(", 4095/1, 4096/1")
        else:
            monkeypatch.setenv("NAKAREP_CAP", "4096")
            assert invoke(capsys, *argv[:-1])[1].splitlines()[0] == done
        assert re.search(r"at most\s+4096\b", invoke(capsys, argv[0], "--help")[1])

    @pytest.mark.parametrize("digits", ["101", "5000"])
    def test_digits_bound(self, files, capsys, digits):
        code, out, err = invoke(capsys, "export-plot", files["half"], "--digits", digits)
        assert (code, out) == (2, "")
        assert "parse error" in err and "expected at most 100," in err

    def test_digits_at_bound(self, files, capsys):
        code, out, _ = invoke(capsys, "export-plot", files["half"], "--samples", "3", "--digits", "100")
        assert code == 0
        assert out.splitlines()[2] == "0." + "3" * 100 + ",0.8" + "3" * 99 + ",0.5" + "0" * 99
        assert re.search(r"at most\s+100\b", invoke(capsys, "export-plot", "--help")[1])

    def test_missing_file_exit_2(self, files, capsys):
        code, _, err = invoke(capsys, "validate", "/nonexistent/profile.txt")
        assert code == 2

    def test_negative_orbit_rejected(self, files, capsys):
        code, out, err = invoke(capsys, "info", files["kappa2"], "--at", "1/4", "--orbit", "-3")
        assert (code, out) == (2, "")
        assert "non-negative integer" in err

    def test_negative_digits_rejected(self, files, capsys):
        code, out, err = invoke(capsys, "export-plot", files["kappa2"], "--digits", "-2")
        assert (code, out) == (2, "")
        assert "non-negative integer" in err

    def test_negative_cap_rejected(self, files, capsys):
        code, out, err = invoke(capsys, "resolve", files["kappa2"], "[0,1/8]", "--cap", "-1")
        assert (code, out) == (2, "")
        assert "non-negative integer" in err


class TestMachineOutput:
    def test_json_envelope(self, files, capsys):
        code, out, _ = invoke(capsys, "--json", "seps", files["kappa2"])
        assert code == 0
        env = json.loads(out)
        assert env["status"] == "ok"
        assert env["payload"]["points"] == ["0/1", "1/2"]

    def test_byte_stability(self, files, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = invoke(capsys, "--json", "components", files["kappa2"])
            runs.append(out)
        assert runs[0] == runs[1]

    def test_export_plot_payload(self, files, capsys):
        code, out, _ = invoke(capsys, "--json", "export-plot", files["half"], "--samples", "3")
        assert code == 0
        assert json.loads(out)["payload"] == {
            "samples": [
                {"t": "0/1", "K": "1/2", "kappa": "1/2"},
                {"t": "1/3", "K": "5/6", "kappa": "1/2"},
                {"t": "2/3", "K": "7/6", "kappa": "1/2"},
            ]
        }

    def test_export_plot_renders_only_printed_rows(self, files, capsys, monkeypatch):
        import nakarep.cli as cli

        calls = []

        def counted(q, digits):
            calls.append(q)
            return fraction_to_decimal(q, digits)

        monkeypatch.setattr(cli, "fraction_to_decimal", counted)
        code, out, _ = invoke(capsys, "--json", "export-plot", files["half"], "--samples", "3")
        assert code == 0 and len(json.loads(out)["payload"]["samples"]) == 3
        assert calls == []
        code, out, _ = invoke(capsys, "export-plot", files["half"], "--samples", "3")
        assert code == 0 and len(calls) == 9
        assert out.splitlines() == [
            "t,K,kappa",
            "0.000000,0.500000,0.500000",
            "0.333333,0.833333,0.500000",
            "0.666667,1.166667,0.500000",
        ]

    def test_json_error_envelope(self, files, capsys):
        code, out, _ = invoke(capsys, "--json", "morphism", "[0,2]", "[1,3]")
        assert code == 3
        env = json.loads(out)
        assert env["status"] == "error"
        assert env["command"] == "morphism"
        assert env["error"]["kind"] == "InvalidMorphism"

    def test_json_parse_error_envelope_names_command(self, files, capsys):
        code, out, _ = invoke(capsys, "--json", "hom", "circle", "[0,x]", "[0,1]")
        assert code == 2
        env = json.loads(out)
        assert (env["status"], env["command"]) == ("error", "hom")
        assert env["error"]["kind"] == "parse error"


class TestDispatchCoverage:
    def test_every_operation_reachable_exactly_once(self):
        inventory = {
            # maps
            "eval", "left_limit", "compose", "invert",
            # intervals
            "left_intersect", "translate", "canonical_lift",
            # profiles
            "validate_profile", "kappa_at", "orbit", "separation_points",
            "next_separation", "components", "push_forward", "verify_conjugacy",
            "normalize_profile",
            # representation calculus
            "is_compatible", "projective_at", "is_projective", "hom_dim",
            "end_dim", "is_brick", "morphism_analyze", "projective_cover",
            "projective_resolution", "map_module", "component_of",
            # discrete bridge
            "validate_series", "associated_kupisch", "embed_module",
            "extract_module", "discrete_hom_dim", "algebra_dim_check",
            # cli
            "export_plot",
        }
        assert LIBRARY_OPERATIONS == inventory
        seen = {}
        for command, (_, ops) in DISPATCH.items():
            for op in ops:
                assert op not in seen, f"{op} reachable from {seen[op]} and {command}"
                seen[op] = command
        assert set(seen) == inventory

    def test_every_listed_operation_is_called(self, files, capsys, monkeypatch):
        # one command per subcommand; each operation its row lists must run
        argvs = {
            "validate": ["kappa2"],
            "info": ["kappa2", "--at", "1/4", "--orbit", "2"],
            "seps": ["kappa2", "--after", "1/4"],
            "components": ["kappa2", "--of", "[1/8,1/4]"],
            "hom": ["circle", "[0,3/2]", "[0,3/2]"],
            "end": ["circle", "[0,5/2]"],
            "brick": ["circle", "[0,1)"],
            "compat": ["translation", "[0,1]", "--projective"],
            "morphism": ["[1,3]", "[0,2]"],
            "resolve": ["half", "(0,1/4]", "--cap", "8"],
            "pushforward": ["unit", "unit_to_half", "--module", "[0,1/2]"],
            "conjugate": ["rotation", "kappa2", "kappa2"],
            "normalize": ["unit"],
            "series-profile": ["3,3,2"],
            "embed": ["3,3,2", "0,3", "--hom-to", "0,1"],
            "extract": ["3,3,2", "(1/3,1]"],
            "algdim": ["3,3,2"],
            "export-plot": ["half", "--samples", "3"],
        }
        assert set(argvs) == set(DISPATCH)
        called = set()

        def recording(op, fn):
            def wrapper(*args, **kwargs):
                called.add(op)
                return fn(*args, **kwargs)

            return wrapper

        modules = [nakarep] + [
            getattr(nakarep, m) for m in ("pwmap", "interval", "kupisch", "repcat", "discrete", "cli")
        ]
        patched = set()
        for op in LIBRARY_OPERATIONS:
            for module in modules:
                fn = getattr(module, op, None)
                if isinstance(fn, types.FunctionType):
                    monkeypatch.setattr(module, op, recording(op, fn))
                    patched.add(op)
        for op in ("eval", "left_limit"):
            monkeypatch.setattr(PiecewiseMap, op, recording(op, getattr(PiecewiseMap, op)))
            patched.add(op)
        assert patched == LIBRARY_OPERATIONS
        for command, (_, ops) in DISPATCH.items():
            called.clear()
            argv = [files.get(a, a) for a in argvs[command]]
            code, _, err = invoke(capsys, command, *argv)
            assert code == 0, err
            assert called >= set(ops), f"{command} never calls {set(ops) - called}"


class TestByteIdentity:
    def test_golden_stdout_and_exit(self, tmp_path, capsys, monkeypatch):
        # stdout and exit code of 121 command lines over every subcommand,
        # plain and with --json; stderr is left out because argparse words
        # its errors differently across Python versions
        golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
        for name, text in golden["files"].items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NAKAREP_CAP", raising=False)
        differing = []
        for case in golden["cases"]:
            code, out, _ = invoke(capsys, *case["argv"])
            if (code, hashlib.sha256(out.encode()).hexdigest()) != (case["exit"], case["stdout_sha256"]):
                differing.append(case["argv"])
        assert differing == []


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nakarep.cli", "hom", "circle", "[0,3/2]", "[0,3/2]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"
