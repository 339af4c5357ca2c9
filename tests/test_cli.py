import ast
import contextlib
import functools
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dakit
from dakit import (
    DesignOptions,
    Network,
    Port,
    Resistor,
    SimulationError,
    Substrate,
    TwoPortSweep,
    load_catalog,
    report_from_json,
    report_to_json,
    sweep,
    synthesize_design,
)
from dakit._e9 import e9_rows
from dakit.cli import run, write_csv, write_touchstone

CATALOG = {
    "transistors": [
        {"name": "GAN-1", "gm_S": 0.05, "cgs_F": 1.79e-12, "cds_F": 1.79e-12 / 6.0},
        {
            "name": "PHEMT-1",
            "gm_S": 0.08,
            "cgs_F": 1.4e-13,
            "cds_F": 5e-14,
            "ri_ohm": 1.0,
            "rds_ohm": 200.0,
            "reference": "pHEMT",
        },
    ]
}


@pytest.fixture()
def catalog_file(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(CATALOG))
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


class TestBandwidth:
    def test_gate_only(self, capsys):
        assert run(["bandwidth", "--cgs", "1.79e-12"]) == 0
        out = lines_of(capsys)
        assert "fc_gate_hz = 3.556535041e+09" in out

    def test_with_drain(self, capsys):
        assert run(["bandwidth", "--cgs", "1.79e-12", "--cds", "2.983e-13"]) == 0
        out = capsys.readouterr().out
        assert "fc_drain_hz" in out
        assert "fc_total_hz = 3.556535041e+09" in out

    def test_with_series(self, capsys):
        assert run(["bandwidth", "--cgs", "1.79e-12", "--cseries", "3.58e-13"]) == 0
        out = lines_of(capsys)
        assert "effective_cgs_f = 2.983333333e-13" in out
        assert any(l.startswith("gain_penalty = 1.666666667e-01") for l in out)

    def test_taper_requires_n_and_cds(self, capsys):
        code = run(["bandwidth", "--cgs", "1.79e-12", "--taper", "ginzton"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_taper_full(self, capsys):
        code = run(
            [
                "bandwidth",
                "--cgs",
                "1.79e-12",
                "--cds",
                "2.9833e-13",
                "--taper",
                "ginzton",
                "--n",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma_gate = 1.650793651e-01" in out
        assert "fc_total_hz" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cgs", "nan"],
            ["--cgs", "inf"],
            ["--cgs", "1.79e-12", "--cseries", "nan"],
            ["--cgs", "1e-12", "--cds", "nan"],
            ["--cgs", "1e-12", "--cds", "nan", "--taper", "ginzton", "--n", "3"],
        ],
    )
    def test_non_finite_capacitance_is_domain_error(self, capsys, flags):
        assert run(["bandwidth", *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("z0", ["nan", "inf"])
    def test_non_finite_impedance_is_domain_error(self, capsys, z0):
        assert run(["bandwidth", "--cgs", "1e-12", "--cds", "1e-13", "--z0", z0]) == 1
        assert capsys.readouterr().err.startswith("error:")


_GAN_ON_FR4 = ["--transistor", "GAN-1", "--er", "4.4", "--h", "1.6", "--t", "0.035"]
_SWEEP = ["--fstart", "1e7", "--fstop", "8e9", "--points", "5"]
_SIMULATE = ["simulate", "--design", "{design}", *_SWEEP]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bandwidth", "--cgs", "1e-12", "--cds", "nan"], 1),
        (["taper", "--n", "3", "--cgs", "1e-12", "--cds", "nan"], 1),
        (["bandwidth", "--cgs", "1e-12", "--taper", "ginzton"], 2),
        (["design", "--catalog", "{catalog}", *_GAN_ON_FR4, "--out", "{missing}/x.json"], 1),
        ([*_SIMULATE, "--csv", "{missing}/x.csv"], 1),
        ([*_SIMULATE, "--out", "{missing}/x.s2p"], 1),
        (["screen", "--catalog", "{catalog}", "--target-fc", "nan"], 1),
        (["screen", "--catalog", "{catalog}", "--target-fc", "inf", "--allow-series"], 1),
        (["screen", "--catalog", "{not_utf8}", "--target-fc", "1e9"], 1),
        (["simulate", "--design", "{not_utf8}", *_SWEEP], 1),
        (["screen", "--catalog", "{deep}", "--target-fc", "1e9"], 1),
        (["design", "--catalog", "{deep}", *_GAN_ON_FR4], 1),
        (["simulate", "--design", "{deep}", *_SWEEP], 1),
        # Gamma/(jw) overflows: no numpy warning, no NaN metrics with exit 0
        (["simulate", "--design", "{design}", "--fstart", "1e-300", *_SWEEP[2:]], 1),
        # pi*z0*C underflows to 0: a ZeroDivisionError traceback before
        (["taper", "--n", "1", "--z0", "1e-300", "--cgs", "1e-300"], 1),
        # the series capacitor overflows: cseries_f=inf with exit 0 before
        (["screen", "--catalog", "{huge}", "--target-fc", "1e-300", "--allow-series"], 1),
        # pi*z0*C is subnormal, so the cutoff overflowed: inf with exit 0 before
        (["taper", "--n", "3", "--z0", "1e-10", "--cgs", "1e-300"], 1),
        (["screen", "--catalog", "{catalog}", "--target-fc", "1e300", "--z0", "1e-300"], 1),
        # a stage count above the bound: a huge one built that many sections before
        (["taper", "--n", "1001"], 1),
        (["bandwidth", "--cgs", "1e-12", "--cds", "1e-13", "--taper", "ginzton", "--n", "1001"], 1),
        (["design", "--catalog", "{catalog}", *_GAN_ON_FR4, "--n", "1001"], 1),
    ],
)
def test_failing_command_prints_nothing_to_stdout(capsys, catalog_file, tmp_path, argv, code):
    # every value is computed, and every file written, before the first
    # line is printed
    design = tmp_path / "design.json"
    catalog = load_catalog(Path(catalog_file).read_text())
    design.write_text(
        report_to_json(synthesize_design(catalog.get("GAN-1"), Substrate(4.4, 1.6, 0.035)))
    )
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    huge = tmp_path / "huge.json"
    huge.write_text(
        json.dumps({"transistors": [{"name": "X", "gm_S": 0.05, "cgs_F": 1e300, "cds_F": 1e299}]})
    )
    paths = {
        "catalog": catalog_file,
        "design": design,
        "missing": tmp_path / "missing",
        "not_utf8": not_utf8,
        "deep": deep,
        "huge": huge,
    }
    assert run([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:" if code == 1 else "usage error:")


# Fuzzed command lines for every subcommand. The files they name are written
# into a fresh directory per example: catalogs as random or damaged JSON,
# reports as damaged copies of real `design --out` files. Stage and point
# counts stay small, so no example builds a large network.
_ODD = st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "abc"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 16) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _number(*typical: str):
    """A flag value: one of the flag's typical values, an odd one, or any
    float but NaN."""
    return st.sampled_from(typical) | _ODD | st.floats(allow_nan=False).map(repr)


def _count(high: int):
    return st.sampled_from([*map(str, range(-2, high + 1)), "2.5", "x"])


@functools.cache
def _base_reports() -> tuple[str, ...]:
    catalog = load_catalog(json.dumps(CATALOG))
    board = Substrate(4.4, 1.6, 0.035)
    return tuple(
        report_to_json(synthesize_design(catalog.get(name), board, DesignOptions(**options)))
        for name, options in (
            ("GAN-1", {"series_cap": "match-drain"}),
            ("GAN-1", {"taper": "ginzton", "include_microstrip_parasitics": True}),
            ("PHEMT-1", {}),
        )
    )


def _paths(doc, prefix=()):
    """The key path of every value in a JSON document, the root's first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, (*prefix, key))


@st.composite
def _json_file(draw, bases):
    """Text of a JSON file: one of the base documents, as it is (half the
    files, so that commands get past their input checks) or with one or two
    fields replaced, deleted or added; random JSON; or arrays nested up to
    past the parser's recursion limit."""
    doc = json.loads(draw(st.sampled_from(bases)))
    damaged = draw(st.booleans())
    if not damaged:
        return json.dumps(doc)
    kind = draw(st.sampled_from(["damaged", "random", "deep"]))
    if kind == "deep":
        depth = draw(st.integers(1, 5000))
        return "[" * depth + "]" * depth
    if kind == "random":
        return json.dumps(draw(_JSON))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(_JSON)
        else:
            parent.append(draw(_JSON))
    return json.dumps(doc)


def _flags(required, **optional):
    """The required flags, and each optional one or not, with their drawn
    values; None marks a switch."""
    return st.fixed_dictionaries(required, optional=optional)


_OUT = st.sampled_from(["{tmp}/out", "{tmp}/missing/out"])
_CGS, _CDS, _Z0 = _number("1.79e-12", "1.4e-13"), _number("2.983e-13"), _number("50")
_COMMANDS = {
    "bandwidth": _flags(
        {"cgs": _CGS},
        cds=_CDS,
        z0=_Z0,
        cseries=_number("3.58e-13"),
        taper=st.just("ginzton"),
        n=_count(16),
    ),
    "screen": _flags(
        {"catalog": st.just("{tmp}/catalog"), "target-fc": _number("1e10")},
        z0=_Z0,
        **{"allow-series": st.none()},
    ),
    "design": _flags(
        {
            "catalog": st.just("{tmp}/catalog"),
            "transistor": st.sampled_from(["GAN-1", "PHEMT-1", "X"]),
            "er": _number("4.4", "2.2"),
            "h": _number("1.6", "0.8"),
            "t": _number("0.035"),
        },
        z0=_Z0,
        n=_count(16),
        taper=st.just("ginzton"),
        series=st.just("match-drain") | _number("3.58e-13"),
        out=_OUT,
        **{"f-loss": _number("1e9"), "include-parasitics": st.none()},
    ),
    "taper": _flags({"n": _count(16)}, z0=_Z0, cgs=_CGS, cds=_CDS),
    "simulate": _flags(
        {
            "design": st.just("{tmp}/report"),
            "span": st.sampled_from([("1e7", "8e9"), ("1e-300", "1e9"), ("1e9", "1e300")])
            | st.tuples(_number("1e7"), _number("8e9")),
            "points": _count(64),
        },
        spacing=st.sampled_from(["linear", "log"]),
        out=_OUT,
        csv=_OUT,
    ),
    "verify": _flags({"table1": st.none()}),
}


@st.composite
def _command(draw):
    # design and simulate read files and run the most code, simulate the most
    name = draw(st.sampled_from([*sorted(_COMMANDS), "design", "simulate", "simulate"]))
    argv = [name]
    for flag, value in draw(_COMMANDS[name]).items():
        if flag == "span":
            argv += ["--fstart", value[0], "--fstop", value[1]]
        else:
            argv += [f"--{flag}"] if value is None else [f"--{flag}", value]
    files = {
        "catalog": draw(_json_file((json.dumps(CATALOG),))),
        "report": draw(_json_file(_base_reports())),
    }
    return argv, files


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_command())
def test_fuzzed_command_lines_keep_the_exit_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([arg.replace("{tmp}", tmp) for arg in argv])
    assert code in (0, 1, 2)
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:" if code == 1 else "usage")


class TestScreen:
    def test_ranking(self, capsys, catalog_file):
        code = run(
            ["screen", "--catalog", catalog_file, "--target-fc", "10e9", "--allow-series"]
        )
        assert code == 0
        out = lines_of(capsys)
        assert out[0].startswith("PHEMT-1 pass")
        assert out[1].startswith("GAN-1 series")
        assert "cseries_f=" in out[1]

    def test_without_series_notes_failure(self, capsys, catalog_file):
        assert run(["screen", "--catalog", catalog_file, "--target-fc", "10e9"]) == 0
        out = lines_of(capsys)
        assert out[1].startswith("GAN-1 fail")
        assert "note=" in out[1]

    def test_missing_catalog_is_domain_error(self, capsys, tmp_path):
        code = run(
            ["screen", "--catalog", str(tmp_path / "nope.json"), "--target-fc", "1e9"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestDesign:
    def design_args(self, catalog_file, *extra):
        return [
            "design",
            "--catalog",
            catalog_file,
            "--transistor",
            "GAN-1",
            "--er",
            "4.4",
            "--h",
            "1.6",
            "--t",
            "0.035",
            *extra,
        ]

    def test_report_text(self, capsys, catalog_file):
        assert run(self.design_args(catalog_file)) == 0
        out = lines_of(capsys)
        assert "transistor = GAN-1" in out
        assert "stages = 4" in out
        assert "gate_cell_l_h = 4.475000000e-09" in out
        assert "gate_line_w_mm = 2.949272509e+00" in out
        assert "n_opt = inf" in out
        assert any(l.startswith("predicted_fc_hz") for l in out)

    def test_match_drain_taper_written(self, capsys, catalog_file, tmp_path):
        out_path = tmp_path / "design.json"
        code = run(
            self.design_args(
                catalog_file,
                "--series",
                "match-drain",
                "--taper",
                "ginzton",
                "--n",
                "4",
                "--out",
                str(out_path),
            )
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "velocity_mismatch = 0.000000000e+00" in text
        assert "gamma_gate" in text
        report = report_from_json(out_path.read_text())
        assert report.stages == 4
        assert report.taper is not None

    def test_unknown_transistor(self, capsys, catalog_file):
        args = self.design_args(catalog_file)
        args[args.index("GAN-1")] = "MISSING"
        assert run(args) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_series_flag(self, catalog_file):
        assert run(self.design_args(catalog_file, "--series", "match-gate")) == 2

    @pytest.mark.parametrize(
        "name, flags, code, err",
        [
            # omega^2 overflows: a lossless gate has no loss at any frequency
            # (it took inf * ri = nan), and a lossy gate's is refused, naming
            # the frequency (the message blamed the attenuation's inf)
            ("GAN-1", ["--f-loss", "1e300"], 0, ""),
            (
                "PHEMT-1",
                ["--f-loss", "1e300"],
                1,
                "error: gate attenuation per cell overflows at frequency (Hz), got 1e+300\n",
            ),
            # the default design frequency, half the cutoff of a tiny load,
            # reaches the cell check, which names the cell's L and C
            ("GAN-1", ["--series", "1e-300"], 1, "error: cell L (H) and C (F) are out of range"),
        ],
    )
    def test_loss_frequency_whose_omega_squared_overflows(
        self, capsys, catalog_file, name, flags, code, err
    ):
        args = self.design_args(catalog_file, *flags)
        args[args.index("GAN-1")] = name
        assert run(args) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(err) and bool(captured.err) == bool(err)
        if code == 0:
            assert "design_frequency_hz = 1.000000000e+300" in captured.out.splitlines()

    def test_non_finite_catalog_is_domain_error(self, capsys, tmp_path):
        # without the check this synthesized, printing av = nan and predicted_fc_hz = 0
        path = tmp_path / "catalog.json"
        path.write_text(
            '{"transistors": [{"name": "GAN-1", "gm_S": NaN, "cgs_F": 1.79e-12,'
            ' "cds_F": Infinity}]}'
        )
        assert run(self.design_args(str(path))) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTaper:
    def test_defaults_reproduce_four_stage_example(self, capsys):
        assert run(["taper", "--n", "4"]) == 0
        out = lines_of(capsys)
        assert "gamma_gate = 1.650793651e-01" in out
        assert "gamma_drain = -2.761904762e-01" in out
        assert "z_gate_ohm = 6.977186312e+01" in out
        assert "z_drain_ohm = 8.815789474e+01" in out
        assert "fc_gate_hz = 2.548688599e+09" in out
        assert "fc_drain_hz = 1.210283566e+10" in out
        assert "fc_total_hz = 2.548688599e+09" in out

    @pytest.mark.parametrize(
        "flags", [["--cgs", "nan"], ["--cds", "nan"], ["--z0", "nan"], ["--cds", "inf"]]
    )
    def test_non_finite_input_is_domain_error(self, capsys, flags):
        assert run(["taper", "--n", "3", *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sections_listed(self, capsys):
        assert run(["taper", "--n", "2", "--z0", "60"]) == 0
        out = lines_of(capsys)
        gate = next(l for l in out if l.startswith("gate_sections_ohm"))
        assert gate.split(" = ")[1].split() == [
            "6.000000000e+01",
            "3.000000000e+01",
            "2.000000000e+01",
        ]


class TestSimulate:
    @pytest.fixture()
    def design_json(self, catalog_file, tmp_path):
        out_path = tmp_path / "design.json"
        args = [
            "design",
            "--catalog",
            catalog_file,
            "--transistor",
            "GAN-1",
            "--er",
            "4.4",
            "--h",
            "1.6",
            "--t",
            "0.035",
            "--out",
            str(out_path),
        ]
        assert run(args) == 0
        return str(out_path)

    def test_metrics_and_files(self, capsys, design_json, tmp_path):
        s2p = tmp_path / "swp.s2p"
        csv = tmp_path / "swp.csv"
        code = run(
            [
                "simulate",
                "--design",
                design_json,
                "--fstart",
                "1e7",
                "--fstop",
                "8e9",
                "--points",
                "41",
                "--out",
                str(s2p),
                "--csv",
                str(csv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "low_freq_gain_db = " in out
        assert "cutoff_hz = " in out

        s2p_lines = s2p.read_text().splitlines()
        assert s2p_lines[0] == "! two-port S-parameters"
        assert s2p_lines[1] == "# HZ S RI R 50"
        assert len(s2p_lines) == 2 + 41
        assert all(len(l.split()) == 9 for l in s2p_lines[2:])

        csv_lines = csv.read_text().splitlines()
        assert csv_lines[0] == "freq_hz,s11_db,s21_db,s12_db,s22_db,s21_phase_deg"
        assert len(csv_lines) == 1 + 41

    def test_parasitics_reach_a_tapered_design(self, capsys, catalog_file, tmp_path):
        metrics = []
        for extra in ([], ["--include-parasitics"]):
            path = tmp_path / f"tapered{len(extra)}.json"
            design = ["design", "--catalog", catalog_file, "--transistor", "GAN-1"]
            board = ["--er", "4.4", "--h", "1.6", "--t", "0.035"]
            options = ["--series", "match-drain", "--taper", "ginzton", "--n", "4", *extra]
            assert run([*design, *board, *options, "--out", str(path)]) == 0
            capsys.readouterr()
            span = ["--fstart", "1e7", "--fstop", "15e9", "--points", "401"]
            assert run(["simulate", "--design", str(path), *span]) == 0
            out = capsys.readouterr().out
            metrics.append(dict(line.split(" = ") for line in out.splitlines()))
        plain, padded = metrics
        assert plain != padded
        # the strips' own capacitance loads every section, so the band narrows
        assert float(padded["cutoff_hz"]) < float(plain["cutoff_hz"])

    def test_byte_identical_reruns(self, design_json, tmp_path):
        paths = []
        for name in ("a.s2p", "b.s2p"):
            target = tmp_path / name
            code = run(
                [
                    "simulate",
                    "--design",
                    design_json,
                    "--fstart",
                    "1e7",
                    "--fstop",
                    "8e9",
                    "--points",
                    "21",
                    "--out",
                    str(target),
                ]
            )
            assert code == 0
            paths.append(target.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("effective_cgs_F",), "abc"),
            (("gains", "n"), "four"),
            (("gains", "n"), math.inf),
            (("gains", "n"), 0),
            (("gains", "n"), -2),
            (("gate_cell", "l_H"), math.nan),
            (("gains", "n"), 2.5),
            (("predicted_fc_Hz",), 3.5e9),
            (("schema",), "design_report_v1"),
        ],
    )
    def test_bad_report_is_domain_error(self, capsys, design_json, tmp_path, keys, value):
        doc = json.loads(Path(design_json).read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = ["simulate", "--design", str(bad), "--fstart", "1e7", "--fstop", "8e9"]
        assert run([*args, "--points", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_span_is_domain_error(self, capsys, design_json):
        code = run(
            [
                "simulate",
                "--design",
                design_json,
                "--fstart",
                "2e9",
                "--fstop",
                "1e9",
                "--points",
                "11",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_memory_error_is_domain_error(self, capsys, design_json, monkeypatch):
        # numpy refuses a grid too large to allocate with a MemoryError
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(dakit.mna, "sweep", refuse)
        capsys.readouterr()
        args = ["simulate", "--design", design_json, "--fstart", "1e7", "--fstop", "15e9"]
        assert run([*args, "--points", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"


class TestVerify:
    def test_table_passes(self, capsys):
        assert run(["verify", "--table1"]) == 0
        out = lines_of(capsys)
        assert len([l for l in out if l.endswith(" PASS")]) == 9
        assert out[-1] == "rows_failed = 0"

    def test_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dakit.cli", "verify", "--table1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "rows_failed = 0" in proc.stdout


@pytest.mark.parametrize(
    "argv", [["verify", "--table1"], ["taper", "--n", "4"], ["bandwidth", "--cgs", "1.79e-12"]]
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # a pipe whose reader has gone before the command starts
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(dakit.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dakit.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def _child(argv, cwd=None):
    """`python -m dakit.cli` with argv, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(dakit.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "dakit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


class TestExitPath:
    """main() freezes the collector's heap once run() has returned; run()
    never does, and a child prints and writes what run() does in process."""

    def test_run_in_process_never_freezes(self, capsys, catalog_file):
        frozen = gc.get_freeze_count()
        screen = ["screen", "--catalog", catalog_file, "--target-fc", "10e9"]
        for argv in (["verify", "--table1"], screen, ["polish"]):
            run(argv)
            assert gc.get_freeze_count() == frozen, argv

    def test_main_freezes_after_the_command(self):
        seen = _run_probe(_FREEZE_PROBE, ["taper", "--n", "4"])
        assert seen["code"] == 0 and seen["frozen"] > 0
        assert "fc_total_hz = " in seen["out"]

    def test_child_prints_and_writes_what_run_does(
        self, capsys, catalog_file, tmp_path, monkeypatch
    ):
        report = tmp_path / "design.json"
        board = ["--er", "4.4", "--h", "1.6", "--t", "0.035", "--series", "match-drain"]
        argv = ["design", "--catalog", catalog_file, "--transistor", "GAN-1", *board]
        assert run([*argv, "--out", str(report)]) == 0
        capsys.readouterr()
        # relative file names, so that both sides print the same lines
        simulate = ["simulate", "--design", str(report), "--fstart", "1e7", "--fstop", "15e9",
                    "--points", "401", "--out", "design.s2p", "--csv", "design.csv"]
        seen = {}
        for side in ("run", "child"):
            cwd = tmp_path / side
            cwd.mkdir()
            if side == "run":
                monkeypatch.chdir(cwd)
                code = run(simulate)
                stdout, stderr = capsys.readouterr()
            else:
                proc = _child(simulate, cwd)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            files = [(cwd / name).read_bytes() for name in ("design.s2p", "design.csv")]
            seen[side] = (code, stdout, stderr, *files)
        assert seen["child"] == seen["run"]
        code, stdout, stderr = seen["run"][:3]
        assert (code, stderr) == (0, "")
        assert "csv_written = design.csv" in stdout.splitlines()

    @pytest.mark.parametrize("argv", [["bogus"], ["bandwidth"], []])
    def test_usage_error_child_exits_2_with_empty_stdout(self, argv):
        proc = _child(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: dakit") and "Traceback" not in proc.stderr

    def test_help_child_exits_0(self):
        proc = _child(["--help"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: dakit") and proc.stderr == ""


class TestUsage:
    def test_no_arguments(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["polish"]) == 2

    def test_missing_required_flag(self):
        assert run(["bandwidth"]) == 2


class TestWriters:
    def sweep_with_zero(self):
        mats = (
            ((0.1 + 0j, 0j), (2.0 + 0j, 0.05 + 0j)),
            ((0.2 + 0j, 0j), (0j, 0.05 + 0j)),
        )
        return TwoPortSweep(frequencies=(1e6, 2e6), s_matrices=mats, reference_impedance=50.0)

    def test_csv_zero_magnitude_renders_minus_inf(self):
        buf = io.StringIO()
        write_csv(self.sweep_with_zero(), buf)
        rows = buf.getvalue().splitlines()
        assert rows[2].split(",")[2] == "-inf"

    def test_csv_phase_column(self):
        buf = io.StringIO()
        write_csv(self.sweep_with_zero(), buf)
        first = buf.getvalue().splitlines()[1].split(",")
        assert float(first[-1]) == 0.0
        assert math.isclose(float(first[2]), 20 * math.log10(2.0), rel_tol=1e-9)

    def test_touchstone_refuses_ports_of_different_impedance(self):
        # S22 of this sweep is referenced to 75 ohm, which a v1 header
        # naming one impedance would mislabel
        elements = (Resistor(1, 0, 100.0), Resistor(1, 2, 25.0), Resistor(2, 0, 150.0))
        swp = sweep(Network(3, elements, Port(1, 50.0), Port(2, 75.0)), 1e6, 2e6, 2)
        assert swp.reference_impedance is None
        with pytest.raises(SimulationError, match="ports differ"):
            write_touchstone(swp, io.StringIO())

    @pytest.mark.parametrize(
        "z0, label",
        [(50.0, "50"), (75.0, "75"), (33.33333333, "33.33333333"), (100 / 3, "33.333333333333336"),
         (1234567.0, "1234567"), (1e-3, "0.001"), (2.5e20, "2.5e+20")],
    )
    def test_touchstone_header_reads_back_the_reference_impedance(self, z0, label):
        # ":g" kept six digits, so 33.33333333 ohm was labelled 33.3333
        swp = TwoPortSweep((1e6,), (((0.1 + 0j, 0j), (0j, 0.1 + 0j)),), z0)
        buf = io.StringIO()
        write_touchstone(swp, buf)
        header = buf.getvalue().splitlines()[1]
        assert header == f"# HZ S RI R {label}"
        assert float(header.split()[-1]) == z0

    def test_touchstone_layout(self):
        buf = io.StringIO()
        write_touchstone(self.sweep_with_zero(), buf)
        rows = buf.getvalue().splitlines()
        assert rows[1] == "# HZ S RI R 50"
        fields = rows[2].split()
        assert fields[0] == "1.000000000e+06"
        # column order is S11, S21, S12, S22 as re/im pairs
        assert float(fields[1]) == 0.1
        assert float(fields[3]) == 2.0

    @staticmethod
    def multi_block_sweep(transistor, options):
        from blocks import block_points
        from dakit.mna import build_network, sweep

        catalog = load_catalog(json.dumps(CATALOG))
        report = synthesize_design(
            catalog.get(transistor), Substrate(4.4, 1.6, 0.035), DesignOptions(**options)
        )
        net = build_network(report)
        # three solve blocks, the last one partial
        return sweep(net, 10e6, 15e9, block_points(net, 3))

    # three of the benchmark's designs: S spans different magnitudes on each
    three_designs = pytest.mark.parametrize(
        "transistor, options",
        [
            ("GAN-1", {"series_cap": "match-drain"}),
            ("PHEMT-1", {}),
            ("GAN-1", {"series_cap": "match-drain", "taper": "ginzton"}),
        ],
        ids=["gan1-match-drain", "phemt1-lossy", "gan1-match-drain-ginzton"],
    )

    @three_designs
    def test_multi_block_sweep_rows_match_per_field_rendering(self, transistor, options):
        swp = self.multi_block_sweep(transistor, options)
        touchstone, csv = io.StringIO(), io.StringIO()
        write_touchstone(swp, touchstone)
        write_csv(swp, csv)

        def db(s):
            return 20.0 * math.log10(abs(s)) if abs(s) else -math.inf

        ts_rows = touchstone.getvalue().splitlines()
        csv_rows = csv.getvalue().splitlines()
        assert ts_rows[:2] == ["! two-port S-parameters", "# HZ S RI R 50"]
        assert csv_rows[0] == "freq_hz,s11_db,s21_db,s12_db,s22_db,s21_phase_deg"
        assert len(ts_rows) == 2 + len(swp.frequencies) and len(csv_rows) == 1 + len(swp.frequencies)
        # Python complex values, so that abs below is CPython's
        for f, ((s11, s12), (s21, s22)), ts_row, csv_row in zip(
            swp.frequencies, swp.s_matrices.tolist(), ts_rows[2:], csv_rows[1:]
        ):
            fields = [f]
            for s in (s11, s21, s12, s22):
                fields += [s.real, s.imag]
            assert ts_row == " ".join("%.9e" % x for x in fields)
            phase = math.degrees(math.atan2(s21.imag, s21.real))
            fields = [f, db(s11), db(s21), db(s12), db(s22), phase]
            assert csv_row == ",".join("%.9e" % x for x in fields)
        # the unilateral amplifier's S12 is exactly zero, which renders as -inf
        assert all(row.split(",")[3] == "-inf" for row in csv_rows[1:])

    @three_designs
    def test_csv_db_and_phase_are_cpythons_bit_for_bit(self, transistor, options, monkeypatch):
        # the rendered CSV has 10 digits, which cannot tell numpy's abs or
        # log10 from CPython's; the table handed to the formatter can
        import dakit._e9

        tables = []
        monkeypatch.setattr(dakit._e9, "e9_rows", lambda table, sep: tables.append(table) or "")
        swp = self.multi_block_sweep(transistor, options)
        write_csv(swp, io.StringIO())
        (table,) = tables

        def db(s):
            return 20.0 * math.log10(abs(s)) if abs(s) else -math.inf

        expected = [
            [f, db(s11), db(s21), db(s12), db(s22), math.degrees(math.atan2(s21.imag, s21.real))]
            # Python complex values, so that abs is CPython's
            for f, ((s11, s12), (s21, s22)) in zip(swp.frequencies, swp.s_matrices.tolist())
        ]
        assert [list(map(float.hex, row)) for row in table.tolist()] == [
            list(map(float.hex, row)) for row in expected
        ]


_MAX = sys.float_info.max
_TINY = 5e-324


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1, max_size=32))
@example([complex(_TINY, _TINY), complex(_TINY, 0.0), complex(-0.0, 2.2250738585072014e-308)])
@example([complex(_MAX, 0.0), complex(_MAX / 2.0, -_MAX / 2.0), complex(-_MAX, _TINY)])
@example([complex(_MAX, _MAX), complex(1e308, 1e308), complex(3.0, 4.0), 0j])
def test_numpy_hypot_is_abs_bit_for_bit(values):
    """extract_metrics and write_csv take |S| from numpy's hypot of the real
    and imaginary parts, on the premise that it is the libm hypot which
    CPython's abs(complex) calls. Should this fail on some build, the
    magnitudes go back to abs, point by point."""
    import numpy as np

    z = np.array(values, dtype=np.complex128)
    want = []
    for v in values:
        try:
            want.append(abs(v))
        except OverflowError:
            # abs refuses a magnitude past the largest float; hypot rounds it to inf
            want.append(math.inf)
    with np.errstate(over="ignore"):
        got = np.hypot(z.real, z.imag)
    assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=32))
@example([0.0, -0.0, _TINY, -_TINY, 2.2250738585072014e-308, -2.2250738585072014e-308])
@example([math.pi, -math.pi, math.pi / 2.0, 1e308, -1e308, _MAX, -_MAX])
@example([math.inf, -math.inf, math.nan])
def test_numpy_degrees_is_math_degrees_bit_for_bit(values):
    """write_csv turns math.atan2's radians into degrees with one numpy
    multiply by 180 / pi, on the premise that CPython's math.degrees(x) is
    that one multiply. Should this fail on some Python, the phases go back
    to math.degrees, point by point."""
    import numpy as np

    # past 3.1e306 the product overflows to inf, as math.degrees's does
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array(values) * (180.0 / math.pi)
    assert got.tobytes() == np.array([math.degrees(v) for v in values]).tobytes()


def test_csv_writes_a_phase_that_underflows():
    # atan2(1e-30, 1e300) underflows to zero, which math.atan2 returns
    # (cmath.phase raises OverflowError there)
    swp = TwoPortSweep(
        (1e9, 2e9, 3e9),
        [((0.5, 0j), (s21, 0.5)) for s21 in (1e300 + 1e-30j, -1e300 - 1e-30j, 1e300 - 1e-30j)],
        50.0,
    )
    out = io.StringIO()
    write_csv(swp, out)
    assert [row.split(",")[-1] for row in out.getvalue().splitlines()[1:]] == [
        "0.000000000e+00", "-1.800000000e+02", "-0.000000000e+00"
    ]


def _percent_rows(rows, sep):
    return "".join(sep.join("%.9e" % x for x in row) + "\n" for row in rows)


def _render(values, sep=" "):
    """e9_rows of a one-row table, and the same row through "%.9e"."""
    import numpy as np

    return e9_rows(np.array([values], dtype=np.float64), sep), _percent_rows([values], sep)


@st.composite
def _float_tables(draw):
    fields = draw(st.integers(1, 9))
    # any float (NaN, the infinities and subnormals too), and plenty inside
    # the exponents the fast path takes
    field = st.one_of(st.floats(), st.floats(-1e32, 1e32))
    return draw(st.lists(st.lists(field, min_size=fields, max_size=fields), min_size=1, max_size=12))


class TestE9Rows:
    """The writers' kernel renders each field exactly as "%.9e" does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_float_tables(), st.sampled_from([" ", ","]))
    def test_any_float_table_renders_as_percent_9e(self, rows, sep):
        import numpy as np

        assert e9_rows(np.array(rows, dtype=np.float64), sep) == _percent_rows(rows, sep)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(10**9, 10**10 - 1))
    @example(10**9)
    @example(10**9 + 1)
    @example(10**10 - 2)
    @example(10**10 - 1)
    def test_exact_binary_ties_round_half_to_even(self, k):
        # k + 0.5 is exact: the tenth digit rounds to even, and 9999999999.5
        # carries to 1.000000000e+10
        got, want = _render([k + 0.5, -(k + 0.5), (k + 0.5) / 2**20, (k + 0.5) * 2**40])
        assert got == want

    def test_carries_of_9_9999999995(self):
        values = []
        for exponent in (*range(-16, 35), -300, 300):
            v = float(f"9.9999999995e{exponent}")
            values += [v, -v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
        got, want = _render(values)
        assert got == want

    def test_fast_path_exponent_borders(self):
        # e = -14 and 32 are outside the fast path, -13 and 31 inside it
        values = []
        for v in (1e-14, 1e-13, 1e31, 1e32, 9.9999999999e-14, 9.9999999999e31, 9.99999999996e31):
            values += [v, -v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
        got, want = _render(values, ",")
        assert got == want

    @staticmethod
    def nearest_power_of_ten(n):
        return float(10**n) if n >= 0 else 1 / 10**-n

    def test_powers_of_ten_and_carries_around_the_exponent_step(self):
        # e steps up where |x| reaches the float nearest 10**(e + 1): that
        # float and its neighbours, and the carries just below it, for e
        # from -15 to 32, either side of the fast path's -13..31
        values = []
        for n in range(-14, 34):
            for v in (self.nearest_power_of_ten(n), float(f"9.9999999995e{n}")):
                below = above = v
                values.append(v)
                for _ in range(2):
                    below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                    values += [below, above]
        values += [-v for v in values]
        got, want = _render(values)
        assert got == want

    def test_the_exponent_step_table_holds_the_nearest_powers_of_ten(self):
        from dakit._e9 import _tables

        *_, ten, record_type = _tables()
        # ten[k] is the float nearest 10**(e + 1), e = 32 - k
        assert ten.tolist() == [self.nearest_power_of_ten(33 - k) for k in range(46)]
        assert not ten.flags.writeable

    def test_signed_zero_infinities_nan_and_extremes(self):
        values = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e300, 1e-300, -1e300, -1e-300]
        values += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        got, want = _render(values)
        assert got == want
        assert got.split()[:4] == ["-0.000000000e+00", "0.000000000e+00", "inf", "-inf"]

    def test_a_product_rounded_onto_a_tie_takes_the_fallback(self):
        # 1.0000000005 is a little above the tie and 9.9999999995 a little
        # below it, but |x|*1e9 rounds to the tie in both, where rint would
        # round the wrong way; the fallback's "%.9e" rounds them right
        got, want = _render([1.0000000005, 9.9999999995])
        assert got == want == "1.000000001e+00 9.999999999e+00\n"

    @pytest.mark.parametrize("fields, sep", [(9, " "), (6, ","), (9, ","), (6, " ")])
    @pytest.mark.parametrize("kind", ["every-value", "fast-path-only"])
    def test_a_multi_block_table_renders_as_percent_9e(self, fields, sep, kind):
        # hypothesis draws at most 12 rows; the writers pass 1001 for each
        # sweep-dense sweep. Every kind of value lands at a row end and in
        # the middle of a long text; the fast-path-only table's text is never
        # split for a fallback
        import numpy as np

        values = [0.0, -0.0]
        for exponent in range(-13, 32):
            for mantissa in ("1", "1.234567891", "4.999999999", "9.87654321", "9.999999999"):
                values += [float(f"{mantissa}e{exponent}"), -float(f"{mantissa}e{exponent}")]
        if kind == "every-value":
            values += [math.inf, -math.inf, math.nan, -math.nan]
            # subnormals and the exponents of three digits, either sign
            values += [5e-324, -5e-324, 2.5e-320, -1.1e-310, 2.2250738585072014e-308]
            values += [1e-300, -1e-300, 1.5e-150, -3.3e200, 1e300, 1.7976931348623157e308]
            for exponent in (-14, 32):
                values += [float(f"1.234567891e{exponent}"), -float(f"9.8e{exponent}")]
            # near ties, the carry to the next exponent among them
            for exponent in range(-14, 33):
                v = float(f"9.9999999995e{exponent}")
                values += [v, -v, math.nextafter(v, 0.0), float(f"1.0000000005e{exponent}")]
            values += [1234567890.5, -(9876543210.5 / 2**20)]
        rows = 1001
        # the values repeat down the table, each time a field further along
        table = np.resize(np.array(values), rows * fields).reshape(rows, fields)
        assert e9_rows(table, sep) == _percent_rows(table.tolist(), sep)


# Runs in a fresh interpreter, because this test session has already loaded
# numpy. Each command runs in turn, simulate last, and the probe records
# whether numpy had been loaded after it.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import dakit
from dakit import *
from dakit import cli
seen = {"import": "numpy" in sys.modules, "sweep": dakit.sweep is dakit.mna.sweep}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    seen[argv[0]] = [code, "numpy" in sys.modules]
print(json.dumps(seen))
"""


# main() as the console script runs it: argv from sys.argv, the command's
# stdout, and the objects frozen once it has returned
_FREEZE_PROBE = """
import contextlib, gc, io, json, sys
from dakit import cli
sys.argv = ["dakit", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main()
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(), "out": out.getvalue()}))
"""


def _probe_commands(catalog_file, tmp_path):
    """The README session's six commands, simulate last."""
    report = str(tmp_path / "design.json")
    device = ["--transistor", "GAN-1", "--er", "4.4", "--h", "1.6", "--t", "0.035"]
    return [
        ["bandwidth", "--cgs", "1.79e-12", "--cds", "2.98e-13"],
        ["taper", "--n", "4"],
        ["verify", "--table1"],
        ["screen", "--catalog", catalog_file, "--target-fc", "10e9", "--allow-series"],
        ["design", "--catalog", catalog_file, *device, "--out", report],
        ["simulate", "--design", report, "--fstart", "1e7", "--fstop", "8e9", "--points", "5"],
    ]


def _run_probe(probe: str, commands, *flags: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(dakit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_simulate_loads_numpy(catalog_file, tmp_path):
    assert _run_probe(_IMPORT_PROBE, _probe_commands(catalog_file, tmp_path)) == {
        "import": False,
        "sweep": True,
        "bandwidth": [0, False],
        "taper": [0, False],
        "verify": [0, False],
        "screen": [0, False],
        "design": [0, False],
        "simulate": [0, True],
    }


# as a user runs the CLI: no star import, which would load the simulator
_LAZY_PROBE = """
import contextlib, io, json, sys
import dakit
from dakit import cli
def loaded():
    return sorted(m for m in ("dataclasses", "dakit.mna", "numpy") if m in sys.modules)
seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    seen[argv[0]] = [code, loaded(), out.getvalue()]
print(json.dumps(seen))
"""


def test_only_simulate_loads_the_simulator_and_dataclasses(catalog_file, tmp_path, capsys):
    commands = _probe_commands(catalog_file, tmp_path)
    seen = _run_probe(_LAZY_PROBE, commands)
    assert seen.pop("import") == []
    code, modules, stdout = seen.pop("simulate")
    assert {name: entry[:2] for name, entry in seen.items()} == {
        name: [0, []] for name in ("bandwidth", "taper", "verify", "screen", "design")
    }
    assert (code, modules) == (0, ["dakit.mna", "dataclasses", "numpy"])
    capsys.readouterr()
    assert run(commands[-1]) == 0
    assert stdout == capsys.readouterr().out


_TYPING_PROBE = """
import contextlib, io, json, sys
import dakit
seen = {"import": "typing" in sys.modules}
from dakit import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    seen[argv[0]] = [code, "typing" in sys.modules]
print(json.dumps(seen))
"""


def test_commands_that_do_not_simulate_leave_typing_unloaded(catalog_file, tmp_path):
    # -S, because site may load typing itself (through a .pth file)
    commands = _probe_commands(catalog_file, tmp_path)[:-1]
    assert _run_probe(_TYPING_PROBE, commands, "-S") == {
        "import": False,
        **{argv[0]: [0, False] for argv in commands},
    }


def test_simulator_import_leaves_typing_unloaded():
    # -S, as above; numpy, which the first Network loads, loads typing itself
    probe = "import json, sys\nimport dakit.mna\nprint(json.dumps('typing' in sys.modules))"
    assert _run_probe(probe, [], "-S") is False


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from dakit import *", namespace)
    assert [name for name in dakit.__all__ if name not in namespace] == []
    assert len(set(dakit.__all__)) == len(dakit.__all__)
    # every public name the package binds, other than its modules, is listed
    public = {
        name
        for name, value in vars(dakit).items()
        if not name.startswith("_") and not isinstance(value, type(dakit))
    }
    assert public <= set(dakit.__all__)
    assert all(getattr(dakit, name) is getattr(dakit.mna, name) for name in dakit._MNA_NAMES)


# One command per fresh interpreter, as a user runs it: the dakit modules
# loaded by the import and by the command, and whether json was loaded. The
# probe reads its JSON argument as a Python literal, which it also is, and
# imports json only once it has looked
_MODULES_PROBE = """
import ast, contextlib, io, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("dakit."))
import dakit
seen = {"import": loaded()}
from dakit import cli
with contextlib.redirect_stdout(io.StringIO()):
    seen["code"] = cli.run(ast.literal_eval(sys.argv[1]))
seen["command"] = loaded()
seen["json"] = "json" in sys.modules
import json
print(json.dumps(seen))
"""


def test_each_command_loads_only_the_modules_it_runs(catalog_file, tmp_path):
    bandwidth, taper, verify, screen, design, simulate = _probe_commands(catalog_file, tmp_path)
    sizing = ["dakit.device", "dakit.ladder"]
    synthesis = [*sizing, "dakit.design", "dakit.gain", "dakit.microstrip", "dakit.taper"]
    # in order, so that simulate reads the report design writes; only the
    # commands that read or write JSON files load json
    cases = [
        (bandwidth, ["dakit.ladder"], False),
        ([*bandwidth, "--taper", "ginzton", "--n", "4"], ["dakit.ladder", "dakit.taper"], False),
        (taper, ["dakit.ladder", "dakit.taper"], False),
        (verify, sizing, False),
        (screen, sizing, True),
        (design, synthesis, True),
        (simulate, [*synthesis, "dakit.mna"], True),
    ]
    for argv, modules, json_loaded in cases:
        assert _run_probe(_MODULES_PROBE, argv) == {
            "import": [],
            "code": 0,
            "command": sorted(["dakit._record", "dakit.cli", "dakit.errors", *modules]),
            "json": json_loaded,
        }, argv


_NAMES_PROBE = """
import importlib, inspect, json
import dakit
seen = {"submodule": dakit.taper.__name__, "elsewhere": []}
for name in dakit.__all__:
    home = importlib.import_module("dakit." + dakit._HOME[name])
    value = getattr(dakit, name)
    defined = not (inspect.isclass(value) or inspect.isfunction(value)) or (
        value.__module__ == home.__name__
    )
    if not (defined and value is getattr(home, name) and name not in vars(dakit)):
        seen["elsewhere"].append(name)
seen["moved"] = [
    getattr(dakit.design, name) is getattr(dakit.device, name)
    for name in ("screen_catalog", "verify_table1", "series_cap_for_target")
]
print(json.dumps(seen))
"""


def test_package_names_resolve_lazily_to_their_home_modules():
    # a submodule resolves after a bare import; each name is its home
    # module's object, defined there, and read through to it, never bound
    # in the package
    assert _run_probe(_NAMES_PROBE, []) == {
        "submodule": "dakit.taper",
        "elsewhere": [],
        "moved": [True, True, True],
    }


def _bench_constant(module: str, name: str):
    """A literal assigned at the top level of a bench module, read without
    importing it: importing the bench pins this process's CPU and threads."""
    path = Path(__file__).resolve().parents[1] / "bench" / module
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            value = node.value
            if isinstance(value, ast.Call):  # json.dumps({...})
                return json.dumps(ast.literal_eval(value.args[0]))
            return ast.literal_eval(value)
    raise LookupError(f"{name} not found in bench/{module}")


def test_readme_session_matches_bench_goldens(capsys, tmp_path, monkeypatch):
    """The README session prints what bench/golden holds, byte for byte;
    simulate's numbers may move within the benchmark's own tolerance."""
    argvs = _bench_constant("cli_session.py", "ARGVS")
    rel_tol = _bench_constant("cli_session.py", "NUMERIC_REL_TOL")
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "catalog.json").write_text(_bench_constant("common.py", "README_CATALOG"))
    # design first: simulate reads the report it writes
    for name in sorted(argvs, key=lambda n: n != "design"):
        assert run(argvs[name]) == 0, name
        out, err = capsys.readouterr()
        assert err == ""
        want = (golden / f"{name}.txt").read_text()
        if name != "simulate":
            assert out == want, name
            continue
        assert out.endswith("\n") and len(out.splitlines()) == len(want.splitlines())
        for got_line, want_line in zip(out.splitlines(), want.splitlines()):
            got_key, _, got_value = got_line.partition(" = ")
            want_key, _, want_value = want_line.partition(" = ")
            assert got_key == want_key
            if got_value != want_value:
                assert math.isclose(float(got_value), float(want_value), rel_tol=rel_tol)
