import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dakit import (
    DRAIN,
    GATE,
    Catalog,
    DakitError,
    DesignError,
    DesignOptions,
    Substrate,
    TaperProfile,
    TransistorModel,
    analyze_taper,
    cell_for_impedance,
    cutoff_frequency,
    ginzton_profiles,
    max_capacitance_for_bandwidth,
    report_from_json,
    report_to_json,
    screen_catalog,
    series_cap_for_target,
    synthesize_design,
    synthesize_strip,
    verify_table1,
)
from dakit.design import _report_doc
from records import replace


def lossy_fet():
    return TransistorModel(
        name="LOSSY-1", gm=0.04, cgs=1.2e-12, cds=0.2e-12, ri=1.5, rds=220.0
    )


class TestOptions:
    def test_defaults(self):
        opt = DesignOptions()
        assert opt.system_impedance == 50.0
        assert opt.stages is None
        assert opt.taper is None
        assert opt.series_cap is None
        assert not opt.include_microstrip_parasitics

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"system_impedance": 0.0},
            {"stages": 0},
            {"stages": 2.5},
            {"taper": "chebyshev"},
            {"series_cap": "match-gate"},
            {"series_cap": -1e-12},
            {"design_frequency_hz": 0.0},
            {"stages": True},
            {"system_impedance": math.nan},
            {"series_cap": math.nan},
            {"series_cap": True},
            {"design_frequency_hz": math.inf},
            {"include_microstrip_parasitics": 1},
            {"taper": ginzton_profiles(3, 50.0)[::-1]},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DesignError):
            DesignOptions(**kwargs)

    @pytest.mark.parametrize("side", [0, 1])
    def test_explicit_pair_must_end_at_the_system_impedance(self, side):
        # the network ends both lines and ports at the system impedance, so
        # a taper predicted against other terminals would not be simulated
        pair = list(ginzton_profiles(4, 50.0))
        pair[side] = replace(pair[side], terminal_impedance=75.0)
        message = r"taper must end at the system impedance 50\.0, got 75\.0$"
        with pytest.raises(DesignError, match=message):
            DesignOptions(stages=4, taper=tuple(pair))
        pair = ginzton_profiles(4, 75.0)
        assert DesignOptions(system_impedance=75.0, taper=pair).taper == pair


def test_max_capacitance_for_bandwidth():
    c = max_capacitance_for_bandwidth(10e9, 50.0)
    assert math.isclose(c, 1.0 / (math.pi * 50.0 * 10e9), rel_tol=1e-12)
    assert math.isclose(cutoff_frequency(50.0, c), 10e9, rel_tol=1e-12)


@pytest.mark.parametrize("f, z0", [(1e-300, 1e-10), (1e-300, 1e-300), (1e300, 1e300)])
def test_max_capacitance_out_of_range_rejected(f, z0):
    # pi*z0*f is subnormal (the capacitance was inf), underflows to 0 (a
    # ZeroDivisionError) or overflows (0 F)
    with pytest.raises(DesignError, match="out of range"):
        max_capacitance_for_bandwidth(f, z0)


def test_series_cap_for_target_values():
    cs, penalty = series_cap_for_target(1.79e-12, 0.2983e-12)
    assert math.isclose(cs, 3.5795200107260173e-13, rel_tol=1e-12)
    assert math.isclose(penalty, 0.2983e-12 / 1.79e-12, rel_tol=1e-12)

    cs, penalty = series_cap_for_target(1.79e-12, 0.3183e-12)
    assert math.isclose(cs, 3.871420805870762e-13, rel_tol=1e-12)
    assert math.isclose(penalty, 0.17782122905027933, rel_tol=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_bandwidth_helpers_reject_non_finite_inputs(bad):
    with pytest.raises(DesignError):
        max_capacitance_for_bandwidth(bad)
    with pytest.raises(DesignError):
        max_capacitance_for_bandwidth(10e9, bad)
    with pytest.raises(DesignError):
        series_cap_for_target(bad, 1e-12)
    with pytest.raises(DesignError):
        series_cap_for_target(1.79e-12, bad)


def test_series_cap_for_target_rejects_unreachable():
    with pytest.raises(DesignError):
        series_cap_for_target(1.79e-12, 1.79e-12)
    with pytest.raises(DesignError):
        series_cap_for_target(1.79e-12, 2e-12)


@pytest.mark.parametrize("cgs, target", [(1e300, 6e297), (1e-200, 1e-201)])
def test_series_cap_outside_the_float_range_rejected(cgs, target):
    # cs = target*cgs/(cgs - target) overflows to inf or underflows to 0
    with pytest.raises(DesignError, match="series capacitor"):
        series_cap_for_target(cgs, target)


class TestScreening:
    def catalog(self):
        return Catalog(
            transistors=(
                TransistorModel(name="FAST", gm=0.03, cgs=0.2e-12, cds=0.05e-12),
                TransistorModel(name="SLOW", gm=0.05, cgs=1.79e-12, cds=0.3e-12),
            )
        )

    def test_direct_pass_and_series_suggestion(self):
        results = screen_catalog(self.catalog(), 10e9, allow_series=True)
        assert [r.name for r in results] == ["FAST", "SLOW"]

        fast = results[0]
        assert fast.direct_pass
        assert fast.required_series_cap is None
        assert math.isclose(fast.resulting_fc, cutoff_frequency(50.0, 0.2e-12), rel_tol=1e-12)
        assert fast.gain_penalty_factor == 1.0

        slow = results[1]
        assert not slow.direct_pass
        c_target = max_capacitance_for_bandwidth(10e9, 50.0)
        cs, penalty = series_cap_for_target(1.79e-12, c_target)
        assert math.isclose(slow.required_series_cap, cs, rel_tol=1e-12)
        assert math.isclose(slow.resulting_fc, 10e9, rel_tol=1e-12)
        assert math.isclose(slow.gain_penalty_factor, penalty, rel_tol=1e-12)
        assert slow.note

    def test_without_series_slow_device_keeps_own_cutoff(self):
        results = screen_catalog(self.catalog(), 10e9, allow_series=False)
        slow = next(r for r in results if r.name == "SLOW")
        assert not slow.direct_pass
        assert slow.required_series_cap is None
        assert math.isclose(slow.resulting_fc, cutoff_frequency(50.0, 1.79e-12), rel_tol=1e-12)
        assert "not allowed" in slow.note

    def test_rejects_bad_target(self):
        with pytest.raises(DesignError):
            screen_catalog(self.catalog(), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("allow_series", [False, True])
    def test_rejects_non_finite_target(self, bad, allow_series):
        with pytest.raises(DesignError, match="target cutoff"):
            screen_catalog(self.catalog(), bad, allow_series=allow_series)


class TestPredictBandwidth:
    """The band a synthesis predicts, its predicted_fc."""

    def test_uniform_is_min_of_cutoffs(self, gan, fr4):
        report = synthesize_design(gan, fr4)
        fc = report.predicted_fc
        assert fc == min(report.gate_cell.fc, report.drain_cell.fc)
        assert math.isclose(fc, cutoff_frequency(50.0, gan.cgs), rel_tol=1e-12)
        assert math.isclose(report.drain_cell.fc, cutoff_frequency(50.0, gan.cds), rel_tol=1e-12)

    def test_match_drain_raises_band_to_drain_cutoff(self, gan, fr4):
        fc = synthesize_design(gan, fr4, DesignOptions(series_cap="match-drain")).predicted_fc
        assert math.isclose(fc, cutoff_frequency(50.0, gan.cds), rel_tol=1e-12)

    def test_taper_uses_equivalent_impedances(self, gan):
        # zero copper thickness keeps the high-impedance taper strips realizable
        board = Substrate(er=4.4, h_mm=1.6, t_mm=0.0)
        opts = DesignOptions(stages=4, taper="ginzton")
        fc = synthesize_design(gan, board, opts).predicted_fc
        gate, drain = ginzton_profiles(4, 50.0)
        expected = analyze_taper(gate, drain, gan.cgs, gan.cds).fc_total
        assert math.isclose(fc, expected, rel_tol=1e-12)

    @pytest.mark.parametrize("gate_n, drain_n", [(2, 4), (4, 3)])
    def test_explicit_pair_is_checked_against_stages(self, gan, fr4, gate_n, drain_n):
        pair = (ginzton_profiles(gate_n, 50.0)[0], ginzton_profiles(drain_n, 50.0)[1])
        with pytest.raises(DesignError, match="sections for 4 stages"):
            synthesize_design(gan, fr4, DesignOptions(stages=4, taper=pair))


class TestSynthesize:
    def test_uniform_defaults(self, gan, fr4):
        report = synthesize_design(gan, fr4)
        assert report.stages == 4
        assert report.series_capacitor is None
        assert report.gain_penalty_factor == 1.0
        assert report.gate_cells == (report.gate_cell,) * 4
        assert report.drain_cells == (report.drain_cell,) * 4
        assert math.isclose(report.gate_cell.inductance, 4.475e-9, rel_tol=1e-12)
        assert math.isclose(
            report.drain_cell.inductance, 7.458333333333334e-10, rel_tol=1e-12
        )
        assert math.isclose(report.velocity_mismatch, 0.591751709536137, rel_tol=1e-12)
        assert math.isclose(report.predicted_fc, report.gate_cell.fc, rel_tol=1e-12)
        assert report.taper is None
        assert report.gate_section_lines is None

    def test_default_design_frequency_is_half_cutoff(self, gan, fr4):
        report = synthesize_design(gan, fr4)
        assert math.isclose(
            report.design_frequency_hz, 0.5 * report.gate_cell.fc, rel_tol=1e-12
        )
        # one radian per cell at half cutoff, by construction of the cell
        assert math.isclose(report.phase_per_cell_gate, 1.0, rel_tol=1e-9)
        assert math.isclose(
            report.phase_per_cell_gate / report.phase_per_cell_drain,
            gan.cgs / gan.cds,
            rel_tol=1e-9,
        )

    def test_lossless_device_gains(self, gan, fr4):
        report = synthesize_design(gan, fr4)
        assert math.isclose(report.gains.av, 5.0, rel_tol=1e-12)
        assert math.isclose(report.gains.gp_lossless, 25.0, rel_tol=1e-12)
        assert report.gains.gp_lossy == report.gains.gp_lossless
        assert report.gains.n_opt_continuous == math.inf
        assert report.gains.n_recommended == 6

    def test_match_drain_equalizes_lines(self, gan, fr4):
        report = synthesize_design(gan, fr4, DesignOptions(series_cap="match-drain"))
        assert math.isclose(report.series_capacitor, 3.58e-13, rel_tol=1e-12)
        assert report.effective_cgs == gan.cds
        assert math.isclose(report.gain_penalty_factor, 1.0 / 6.0, rel_tol=1e-12)
        assert report.velocity_mismatch == 0.0
        assert report.gate_cell == report.drain_cell
        assert report.phase_per_cell_gate == report.phase_per_cell_drain

    def test_match_drain_needs_room(self, fr4):
        t = TransistorModel(name="X", gm=0.05, cgs=1e-12, cds=1e-12)
        with pytest.raises(DesignError):
            synthesize_design(t, fr4, DesignOptions(series_cap="match-drain"))

    def test_explicit_series_value(self, gan, fr4):
        report = synthesize_design(gan, fr4, DesignOptions(series_cap=0.358e-12))
        assert math.isclose(report.effective_cgs, 2.983333333333333e-13, rel_tol=1e-12)
        assert math.isclose(
            report.gain_penalty_factor, report.effective_cgs / gan.cgs, rel_tol=1e-12
        )

    def test_explicit_stages(self, gan, fr4):
        report = synthesize_design(gan, fr4, DesignOptions(stages=7))
        assert report.stages == 7
        assert math.isclose(report.gains.av, 0.05 * 50.0 * 7 / 2.0, rel_tol=1e-12)

    def test_stage_count_from_losses(self, fr4):
        report = synthesize_design(
            lossy_fet(), fr4, DesignOptions(design_frequency_hz=2e9)
        )
        assert report.stages == report.gains.n_recommended
        assert math.isfinite(report.gains.n_opt_continuous)
        assert report.gains.gp_lossy < report.gains.gp_lossless

    def test_taper_report_and_strips(self, gan, fr4):
        report = synthesize_design(
            gan, fr4, DesignOptions(stages=4, taper="ginzton", series_cap="match-drain")
        )
        assert report.taper is not None
        assert len(report.taper_gate_profile.sections) == 5
        assert len(report.taper_drain_profile.sections) == 4
        assert len(report.gate_section_lines) == 5
        assert len(report.drain_section_lines) == 4
        assert math.isclose(report.predicted_fc, report.taper.fc_total, rel_tol=1e-12)
        # section strips must realize the stepped impedances on the board
        for zk, strip in zip(report.taper_gate_profile.sections, report.gate_section_lines):
            assert math.isclose(strip.z0, zk, rel_tol=1e-12)

    def test_explicit_profile_pair(self, gan, fr4):
        pair = ginzton_profiles(4, 50.0)
        report = synthesize_design(gan, fr4, DesignOptions(stages=4, taper=pair))
        assert report.taper_gate_profile == pair[0]
        assert report.taper_drain_profile == pair[1]

    def test_profile_stage_mismatch_rejected(self, gan, fr4):
        pair = ginzton_profiles(5, 50.0)
        with pytest.raises(DesignError):
            synthesize_design(gan, fr4, DesignOptions(stages=3, taper=pair))

    def test_parasitics_grow_loading_at_fixed_impedance(self, gan, fr4):
        plain = synthesize_design(gan, fr4)
        padded = synthesize_design(
            gan, fr4, DesignOptions(include_microstrip_parasitics=True)
        )
        assert padded.gate_cell.capacitance > plain.gate_cell.capacitance
        assert math.isclose(padded.gate_cell.z0, 50.0, rel_tol=1e-12)
        assert padded.predicted_fc < plain.predicted_fc

    @pytest.mark.parametrize("series", [None, "match-drain"])
    def test_tapered_cells_are_sized_at_each_section(self, gan, fr4, series):
        # L = zk^2 * C per section; the gate line's (n+1)th section is a
        # strip only
        report = synthesize_design(
            gan, fr4, DesignOptions(stages=4, taper="ginzton", series_cap=series)
        )
        gate_z, drain_z = report.taper_gate_profile.sections, report.taper_drain_profile.sections
        assert len(gate_z) == 5
        assert report.gate_cells == tuple(
            cell_for_impedance(z, report.effective_cgs) for z in gate_z[:4]
        )
        assert report.drain_cells == tuple(cell_for_impedance(z, gan.cds) for z in drain_z)

    @pytest.mark.parametrize("parasitics", [False, True])
    def test_tapered_cells_are_the_ones_their_strips_realize(self, gan, fr4, parasitics):
        options = DesignOptions(
            stages=4, taper="ginzton", include_microstrip_parasitics=parasitics
        )
        report = synthesize_design(gan, fr4, options)
        for cells, strips, profile, c_load in (
            (report.gate_cells, report.gate_section_lines, report.taper_gate_profile, gan.cgs),
            (report.drain_cells, report.drain_section_lines, report.taper_drain_profile, gan.cds),
        ):
            assert len(cells) == 4
            for cell, strip, z in zip(cells, strips, profile.sections):
                assert strip == synthesize_strip(z, fr4, cell.inductance)
                assert math.isclose(cell.z0, z, rel_tol=1e-12)
                # the strip's own capacitance loads the cell only with the flag
                if parasitics:
                    assert cell.capacitance > c_load
                else:
                    assert cell.capacitance == c_load


class TestJsonRoundTrip:
    def test_plain_report(self, gan, fr4):
        report = synthesize_design(gan, fr4)
        text = report_to_json(report)
        again = report_to_json(report_from_json(text))
        assert text == again

    def test_tapered_match_drain_report(self, gan, fr4):
        report = synthesize_design(
            gan, fr4, DesignOptions(stages=4, taper="ginzton", series_cap="match-drain")
        )
        text = report_to_json(report)
        rebuilt = report_from_json(text)
        assert report_to_json(rebuilt) == text
        assert rebuilt.taper_gate_profile == report.taper_gate_profile
        assert rebuilt.gate_section_lines == report.gate_section_lines

    def test_lossy_device_report(self, fr4):
        report = synthesize_design(lossy_fet(), fr4)
        text = report_to_json(report)
        rebuilt = report_from_json(text)
        assert report_to_json(rebuilt) == text
        assert rebuilt.transistor.rds == 220.0
        assert '"rds_ohm": 220.0' in text

    def test_infinite_rds_is_omitted(self, gan, fr4):
        text = report_to_json(synthesize_design(gan, fr4))
        assert "rds_ohm" not in text
        assert '"n_opt": null' in text

    def test_report_keeps_its_options(self, gan, fr4):
        options = DesignOptions(stages=4, taper="ginzton", series_cap="match-drain")
        assert synthesize_design(gan, fr4, options).options == options

    def test_tapered_report_with_parasitics_round_trips(self, gan, fr4):
        # the case where rebuilding the taper strips by another order of
        # operations than synthesis leaves a strip length a last bit off
        options = DesignOptions(taper="ginzton", include_microstrip_parasitics=True)
        report = synthesize_design(gan, fr4, options)
        assert report_from_json(report_to_json(report)) == report

    def test_options_block(self, gan, fr4):
        pair = ginzton_profiles(4, 50.0)
        report = synthesize_design(gan, fr4, DesignOptions(stages=4, taper=pair))
        doc = json.loads(report_to_json(report))
        assert doc["schema"] == "design_report_v2"
        assert doc["options"] == {
            "system_impedance_ohm": 50.0,
            "stages": 4,
            "series_cap": None,
            "taper": {
                "gate": {"sections_ohm": list(pair[0].sections), "terminal_ohm": 50.0},
                "drain": {"sections_ohm": list(pair[1].sections), "terminal_ohm": 50.0},
            },
            "include_microstrip_parasitics": False,
            "design_frequency_hz": None,
        }

    @pytest.mark.parametrize("side", [GATE, DRAIN])
    def test_terminal_edited_off_the_system_impedance_is_refused(self, gan, fr4, side):
        options = DesignOptions(stages=4, taper=ginzton_profiles(4, 50.0))
        report = synthesize_design(gan, fr4, options)
        text = self.edited(report, ("options", "taper", side, "terminal_ohm"), lambda _: 75)
        with pytest.raises(DesignError, match=rf"^{side} taper .* got 75\.0$"):
            report_from_json(text)

    @staticmethod
    def edited(report, keys, change):
        doc = json.loads(report_to_json(report))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = change(target.get(keys[-1]))
        return json.dumps(doc)

    def test_figures_within_tolerance_are_accepted(self, gan, fr4):
        report = synthesize_design(gan, fr4)
        text = self.edited(report, ("gate_cell", "l_H"), lambda v: v * (1 + 1e-12))
        assert report_from_json(text) == report

    @pytest.mark.parametrize(
        "keys, change, field",
        [
            (("gate_cell", "l_H"), lambda v: v * (1 + 1e-6), r"gate_cell\.l_H"),
            (("gate_line", "w_mm"), lambda v: math.nan, r"gate_line\.w_mm"),
            (("gains", "n"), lambda v: 2.5, r"gains\.n"),
            (("velocity_mismatch",), lambda v: str(v), "velocity_mismatch"),
            (("gains", "extra"), lambda v: 1.0, r"gains has unexpected or missing keys \['extra'\]"),
        ],
    )
    def test_edited_figure_is_refused_by_name(self, gan, fr4, keys, change, field):
        text = self.edited(synthesize_design(gan, fr4), keys, change)
        with pytest.raises(DesignError, match=field):
            report_from_json(text)

    @pytest.mark.parametrize(
        "options, keys, value",
        [
            # the README's match-drain design, whose mismatch is 0.0
            (DesignOptions(series_cap="match-drain"), ("velocity_mismatch",), False),
            # a uniform design, whose penalty is 1.0
            (DesignOptions(), ("gain_penalty",), True),
            (DesignOptions(stages=1), ("gains", "n"), True),
        ],
        ids=["velocity_mismatch", "gain_penalty", "gains.n"],
    )
    def test_a_bool_for_an_equal_number_is_refused_by_name(self, gan, fr4, options, keys, value):
        report = synthesize_design(gan, fr4, options)
        fresh = json.loads(report_to_json(report))
        for key in keys:
            fresh = fresh[key]
        # the bool equals the number, so only its type tells them apart
        assert fresh == value and not isinstance(fresh, bool)
        text = self.edited(report, keys, lambda v: value)
        message = f"report field {'.'.join(keys)} is {value!r}, but its inputs synthesize {fresh!r}"
        with pytest.raises(DesignError, match=f"^{re.escape(message)}; "):
            report_from_json(text)

    def test_a_report_with_parasitics_on_loads(self, gan, fr4):
        report = synthesize_design(gan, fr4, DesignOptions(include_microstrip_parasitics=True))
        text = report_to_json(report)
        # its one bool keeps the text on the fast path; bytes are walked
        assert text.count("true") + text.count("false") == 1
        assert report_from_json(text) == report
        assert report_from_json(text.encode()) == report

    def test_a_true_inside_a_string_still_loads(self, fr4):
        # a second "true" in the text sends the document through the walk
        device = TransistorModel(name="true", gm=0.05, cgs=1.79e-12, cds=3e-13, reference="false")
        report = synthesize_design(device, fr4)
        assert report_from_json(report_to_json(report)) == report

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("substrate", "h_mm"), True),
            (("transistor", "gm_S"), "0.05"),
            (("transistor", "color"), "blue"),
            (("options", "include_microstrip_parasitics"), 1),
            (("options", "stages"), 4.0),
            (("options", "series_cap"), "match-gate"),
            (("options", "system_impedance_ohm"), None),
        ],
    )
    def test_bad_inputs_rejected(self, gan, fr4, keys, value):
        text = self.edited(synthesize_design(gan, fr4), keys, lambda v: value)
        with pytest.raises(DakitError):
            report_from_json(text)

    def test_v1_document_is_refused(self, gan, fr4):
        text = self.edited(synthesize_design(gan, fr4), ("schema",), lambda v: "design_report_v1")
        with pytest.raises(DesignError, match="design_report_v1 is no longer read"):
            report_from_json(text)

    def test_malformed_documents_rejected(self):
        with pytest.raises(DesignError):
            report_from_json("not json at all{")
        with pytest.raises(DesignError):
            report_from_json('{"schema": "something_else"}')
        with pytest.raises(DesignError):
            report_from_json('{"schema": "design_report_v1"}')

    @pytest.mark.parametrize(
        "keys, value, cause",
        [
            ((), None, "KeyError('substrate')"),
            (("substrate",), [4.4, 1.6, 0.035], "TypeError("),
            # an integer too large for a float
            (("substrate", "er"), 10**400, "OverflowError("),
        ],
        ids=["missing-key", "substrate-list", "huge-er"],
    )
    def test_malformed_v2_document_is_refused(self, gan, fr4, keys, value, cause):
        if keys:
            text = self.edited(synthesize_design(gan, fr4), keys, lambda v: value)
        else:
            text = '{"schema": "design_report_v2"}'
        message = f"malformed design_report_v2 document: {cause}"
        with pytest.raises(DesignError, match=f"^{re.escape(message)}"):
            report_from_json(text)

    def test_edited_list_is_refused_by_element_or_whole(self, gan, fr4):
        report = synthesize_design(gan, fr4, DesignOptions(taper="ginzton"))
        keys = ("taper", "sections_g_ohm")
        # an edited element is named by its index
        text = self.edited(report, keys, lambda v: v[:2] + [v[2] * 1.01] + v[3:])
        with pytest.raises(DesignError, match=r"^report field taper\.sections_g_ohm\[2\] is "):
            report_from_json(text)
        # a list of another length is named whole
        text = self.edited(report, keys, lambda v: v + [50.0])
        with pytest.raises(DesignError, match=r"^report field taper\.sections_g_ohm is \["):
            report_from_json(text)


@st.composite
def design_inputs(draw):
    """A lossy or lossless device, a board, and options drawn from every
    combination of series capacitor, taper, parasitics, stages and design
    frequency."""
    cgs = draw(st.floats(50e-15, 2e-12))
    lossy = draw(st.booleans())
    t = TransistorModel(
        name="DUT",
        gm=draw(st.floats(0.01, 0.2)),
        cgs=cgs,
        cds=cgs * draw(st.floats(0.1, 0.9)),
        ri=draw(st.floats(0.5, 5.0)) if lossy else 0.0,
        rds=draw(st.floats(50.0, 500.0)) if lossy else math.inf,
    )
    board = Substrate(
        er=draw(st.sampled_from((2.2, 3.55, 4.4))),
        h_mm=draw(st.sampled_from((0.25, 0.8, 1.6))),
        t_mm=draw(st.sampled_from((0.0, 0.035))),
    )
    z0 = draw(st.floats(25.0, 75.0))
    stages = draw(st.none() | st.integers(1, 8))
    taper = draw(st.sampled_from((None, "ginzton", "pair")))
    if taper == "pair":
        # sized for the requested count, else for the default 4 of a lossless
        # device or a guess for a lossy one; a wrong guess is refused and skipped
        n = stages or (draw(st.integers(3, 6)) if lossy else 4)
        z = st.floats(0.6 * z0, 1.4 * z0)
        gate = draw(st.lists(z, min_size=n, max_size=n + 1))
        drain = draw(st.lists(z, min_size=n, max_size=n))
        taper = (TaperProfile(GATE, tuple(gate), z0), TaperProfile(DRAIN, tuple(drain), z0))
    options = DesignOptions(
        system_impedance=z0,
        stages=stages,
        taper=taper,
        series_cap=draw(st.none() | st.just("match-drain") | st.floats(0.05e-12, 2e-12)),
        include_microstrip_parasitics=draw(st.booleans()),
        design_frequency_hz=draw(st.none() | st.floats(1e8, 2e10)),
    )
    return t, board, options


@settings(max_examples=200, deadline=None, derandomize=True)
@given(design_inputs())
def test_report_round_trip_is_exact(inputs):
    t, board, options = inputs
    try:
        report = synthesize_design(t, board, options)
    except DakitError:
        return
    text = report_to_json(report)
    assert text == json.dumps(_report_doc(report), indent=2, allow_nan=False)
    assert report_from_json(text) == report
    assert report_to_json(report_from_json(text)) == text


@pytest.mark.parametrize("lossy", [False, True])
def test_report_round_trip_covers_every_option_combination(gan, lossy):
    # zero copper thickness keeps the high-impedance taper strips realizable
    board = Substrate(er=4.4, h_mm=1.6, t_mm=0.0)
    t = lossy_fet() if lossy else gan
    for series, taper, parasitics, stages, f_design in itertools.product(
        (None, "match-drain", 0.5e-12),
        (None, "ginzton", "pair"),
        (False, True),
        (None, 5),
        (None, 1e9),
    ):
        options = DesignOptions(
            stages=stages,
            series_cap=series,
            include_microstrip_parasitics=parasitics,
            design_frequency_hz=f_design,
        )
        if taper == "pair":
            taper = ginzton_profiles(synthesize_design(t, board, options).stages, 50.0)
        report = synthesize_design(t, board, replace(options, taper=taper))
        text = report_to_json(report)
        assert text == json.dumps(_report_doc(report), indent=2, allow_nan=False)
        assert report_from_json(text) == report


def test_report_text_is_the_indented_json_dump():
    # strings json escapes, ints where floats usually stand, and a float
    # subclass must come out as json.dumps writes them
    t = TransistorModel(
        name='GaN "ñ"\t\x01☃', gm=0.05, cgs=1.79e-12, cds=0.3e-12, reference="réf\n\\"
    )
    board = Substrate(er=np.float64(4.4), h_mm=1.6, t_mm=0.035)
    report = synthesize_design(t, board, DesignOptions(system_impedance=50, series_cap=1))
    doc = _report_doc(report)
    assert doc["options"]["system_impedance_ohm"] == 50
    assert type(doc["options"]["series_cap"]) is int
    assert type(doc["substrate"]["er"]) is np.float64
    text = report_to_json(report)
    assert text == json.dumps(doc, indent=2, allow_nan=False)
    assert text.isascii()
    # allow_nan=False: a non-finite figure raises instead of writing NaN
    broken = replace(report, predicted_fc=math.nan)
    with pytest.raises(ValueError, match="not JSON compliant"):
        json.dumps(_report_doc(broken), indent=2, allow_nan=False)
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_to_json(broken)


def test_verify_table1_all_within_two_percent():
    checks = verify_table1()
    assert len(checks) == 9
    assert all(c.passed for c in checks)
    assert max(c.rel_error for c in checks) < 0.02
    slowest = next(c for c in checks if c.tag == "[15]")
    assert math.isclose(slowest.computed_limit_hz, 3556535041.1596723, rel_tol=1e-12)
