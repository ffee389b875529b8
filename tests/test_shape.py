import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbgvib import (CalibrationModel, CmGeometry, DataError, ParameterError, ParseError,
                    default_calibration, load_calibration, reconstruct,
                    tips_for_curvatures, wavelength_to_curvature)
from fbgvib.shape import POLYLINE_STEP_MM, _arc_step, shape_csv_text

from oracles import quarter_point_segment_lengths, rk4_frenet_tips

L = 35.0


# --- wavelength to curvature -------------------------------------------------

def test_unstrained_gives_zero_curvature():
    calib = default_calibration()
    kappa = wavelength_to_curvature([1535.3, 1535.3, 1535.3], calib)
    assert np.allclose(kappa, 0.0)


def test_linear_model_arithmetic():
    calib = CalibrationModel((1535.3, 1531.0, 1540.2), (13.0, -11.5, 9.25))
    kappa = wavelength_to_curvature([1536.6, 1529.85, 1540.2], calib)
    assert kappa == pytest.approx([0.1, 0.1, 0.0], rel=1e-12, abs=0.0)


def test_out_of_band_wavelength_rejected():
    with pytest.raises(DataError):
        wavelength_to_curvature([1490.0, 1535.3, 1535.3], default_calibration())


def test_record_converts_like_each_instant():
    calib = CalibrationModel((1531.0, 1535.3, 1540.2), (13.0, -11.5, 9.25))
    wl = np.random.default_rng(3).uniform(1520.0, 1550.0, (50, 3))
    kappa = wavelength_to_curvature(wl, calib)
    assert kappa.shape == (50, 3)
    rows = np.array([wavelength_to_curvature(row, calib) for row in wl])
    assert kappa.tobytes() == rows.tobytes()


@pytest.mark.parametrize("wavelengths", [
    np.full((4, 2), 1535.3), np.full(3 * 4, 1535.3), np.float64(1535.3),
    np.array([[1535.3] * 3, [1535.3, 1591.0, 1535.3]]),
])
def test_record_with_wrong_areas_or_band_rejected(wavelengths):
    with pytest.raises(DataError):
        wavelength_to_curvature(wavelengths, default_calibration())


def test_zero_sensitivity_rejected():
    with pytest.raises(ParameterError):
        CalibrationModel((1535.3,) * 3, (13.0, 0.0, 13.0))


@pytest.mark.parametrize("sensitivity", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sensitivity_rejected(sensitivity):
    with pytest.raises(ParameterError, match="finite"):
        CalibrationModel((1535.3,) * 3, (13.0, sensitivity, 13.0))


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_a_calibration_is_the_three_active_areas(n):
    with pytest.raises(ParameterError, match="3 .base, sensitivity. pairs"):
        CalibrationModel((1535.3,) * n, (13.0,) * n)
    with pytest.raises(ParameterError, match="3 .base, sensitivity. pairs"):
        CalibrationModel((1535.3,) * 3, (13.0,) * n)


def test_round_trip_through_calibration():
    calib = CalibrationModel((1531.0, 1535.3, 1540.2), (13.0, -11.5, 9.25))
    kappa = np.array([0.04, -0.08, 0.13])
    wl = np.array(calib.base_wavelengths_nm) + np.array(
        calib.sensitivities_nm_per_invm) * kappa
    back = wavelength_to_curvature(wl, calib)
    assert np.allclose(back, kappa, atol=1e-12)


# --- geometry ---------------------------------------------------------------

def test_geometry_validation():
    for length in (0.0, -0.0, -35.0):
        with pytest.raises(ParameterError, match="positive"):
            CmGeometry(length)
    # The smallest positive double is a length: its quarter points may
    # collapse, but the segments still sum to it and the tip stays put.
    geometry = CmGeometry(5e-324)
    assert sum(geometry.segment_lengths_mm()) == 5e-324
    assert reconstruct([1.0, 2.0, 3.0], geometry).tip_mm == (0.0, 5e-324)


@pytest.mark.parametrize("length", [np.nan, np.inf, -np.inf],
                         ids=["nan-length", "inf-length", "neg-inf-length"])
def test_non_finite_geometry_rejected(length):
    with pytest.raises(ParameterError, match="finite"):
        CmGeometry(length)


@pytest.mark.parametrize("length", [1e308, 1.7e308])
def test_a_length_whose_step_count_overflows_is_refused(length, recwarn):
    # 1.7e308: the midpoint between the last two areas overflows as well.
    with pytest.raises(ParameterError, match="overflows"):
        reconstruct([0.0, 0.0, 0.0], CmGeometry(length))
    assert not recwarn.list


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1.7e308))
@example(1e308)
@example(1.7e308)
def test_segments_are_the_quarter_point_midpoints_to_the_bit(length):
    oracle = quarter_point_segment_lengths(length)
    geometry = CmGeometry(length)
    assert [v.hex() for v in geometry.segment_lengths_mm()] == [v.hex() for v in oracle]
    if not all(math.isfinite(ell / POLYLINE_STEP_MM) for ell in oracle):
        with pytest.raises(ParameterError, match="overflows"):
            reconstruct([0.0, 0.0, 0.0], geometry)


def test_segment_boundaries_at_midpoints():
    g = CmGeometry()
    assert g.segment_lengths_mm() == (13.125, 8.75, 13.125)
    assert sum(g.segment_lengths_mm()) == pytest.approx(L)


# --- reconstruction -----------------------------------------------------------

def test_straight_pose_tip():
    est = reconstruct([0.0, 0.0, 0.0])
    assert est.tip_mm[0] == pytest.approx(0.0, abs=1e-9)
    assert est.tip_mm[1] == pytest.approx(L, abs=1e-9)


def test_quarter_circle_tip():
    kappa = np.pi / (2 * L) * 1000.0  # uniform, 1/m
    est = reconstruct([kappa] * 3)
    assert est.tip_mm[0] == pytest.approx(2 * L / np.pi, abs=1e-9)
    assert est.tip_mm[1] == pytest.approx(2 * L / np.pi, abs=1e-9)


def test_near_zero_curvature_is_continuous():
    # Small enough that the analytic deflection is itself below 1e-9 L.
    est = reconstruct([1e-8, 1e-8, 1e-8])
    assert est.tip_mm[0] == pytest.approx(0.0, abs=1e-9 * L)
    assert est.tip_mm[1] == pytest.approx(L, abs=1e-9 * L)
    # No cancellation at tiny curvature: match the exact arc point,
    # referenced through the stable half-angle identity.
    kappa = 1e-7  # 1/m
    est = reconstruct([kappa] * 3)
    k_mm = kappa / 1000.0
    x_exact = 2.0 * np.sin(0.5 * k_mm * L) ** 2 / k_mm
    assert est.tip_mm[0] == pytest.approx(x_exact, rel=1e-9)
    assert est.tip_mm[1] == pytest.approx(np.sin(k_mm * L) / k_mm, rel=1e-12)


def test_mirror_symmetry():
    kappa = [12.0, -5.0, 20.0]
    a = reconstruct(kappa)
    b = reconstruct([-k for k in kappa])
    assert np.allclose(a.centerline_mm[:, 1], -b.centerline_mm[:, 1])
    assert np.allclose(a.centerline_mm[:, 2], b.centerline_mm[:, 2])


def test_arc_length_preserved():
    rng = np.random.default_rng(0)
    for _ in range(20):
        kappa = rng.uniform(-30.0, 30.0, size=3)
        est = reconstruct(kappa)
        steps = np.diff(est.centerline_mm[:, 1:], axis=0)
        length = np.sum(np.linalg.norm(steps, axis=1))
        assert abs(length - L) <= 1e-3 * L


def test_matches_frenet_ode_oracle():
    rng = np.random.default_rng(1)
    kappas = rng.uniform(-30.0, 30.0, size=(100, 3))
    oracle = rk4_frenet_tips(kappas, CmGeometry().segment_lengths_mm())
    tips = tips_for_curvatures(kappas)
    assert np.max(np.abs(tips - oracle)) <= 1e-6 * L


def test_a_pose_that_turns_more_than_once_is_refused():
    # A uniform curvature that bends the 35 mm segment through 1.01 turns.
    over = 1000.0 * 2.02 * np.pi / L
    quarter = 1000.0 * np.pi / (2.0 * L)
    with pytest.raises(DataError, match=r"^sample 1 turns the tip 6\.346 rad, "
                                        r"over one full turn$"):
        tips_for_curvatures([[quarter] * 3, [over] * 3, [-over] * 3])
    with pytest.raises(DataError, match="^the pose turns the tip"):
        reconstruct([over, -over, over])
    assert tips_for_curvatures([[0.99 * over, 0.0, -0.99 * over]]).shape == (1, 2)


def test_wrong_curvature_count_rejected():
    with pytest.raises(DataError):
        reconstruct([0.0, 0.0])


# --- CSV round trips ------------------------------------------------------------

def test_calibration_csv_round_trip(tmp_path):
    # The file is written by hand, in the format the README documents.
    model = CalibrationModel((1531.0, 1535.3, 1540.2), (13.0, -11.5, 9.25))
    path = tmp_path / "calib.csv"
    path.write_text("aa_index,base_wavelength_nm,sensitivity_nm_per_invm\n"
                    "2,1540.2,9.25\n0,1531.0,13.0\n\n1,1535.3,-11.5\n")
    assert load_calibration(path) == model


def test_shape_csv_has_header_and_rows():
    est = reconstruct([5.0, 5.0, 5.0])
    lines = shape_csv_text(est).strip().split("\n")
    assert lines[0] == "s_mm,x_mm,z_mm"
    assert len(lines) == est.centerline_mm.shape[0] + 1


def test_csv_writers_print_each_row_as_its_f_string():
    est = reconstruct([5.0, -0.0, -120.0])
    assert shape_csv_text(est) == "s_mm,x_mm,z_mm\n" + "".join(
        f"{s:.6f},{x:.9f},{z:.9f}\n" for s, x, z in est.centerline_mm)


def test_tip_is_one_arc_step_per_segment_to_the_bit():
    rng = np.random.default_rng(5)
    for _ in range(50):
        kappa = 10.0 ** rng.uniform(-6, 2, 3) * rng.choice([-1.0, 0.0, 1.0], 3)
        length = rng.uniform(5.0, 80.0)
        geometry = CmGeometry(length)
        x = z = theta = 0.0
        for k, ell in zip(kappa / 1000.0, geometry.segment_lengths_mm()):
            x, z, theta = _arc_step(x, z, theta, k, ell)
        tip = reconstruct(kappa, geometry).tip_mm
        assert [v.hex() for v in tip] == [float(x).hex(), float(z).hex()]


@pytest.mark.parametrize("rows,line,message", [
    ("0,1535.3,13\n1,1535.3,13\n0,1536.0,13\n", 4, "area 0 is listed twice"),
    ("0,1535.3,13\n1,nan,13\n2,1535.3,13\n", 3, "must be finite"),
    ("0,1535.3,13\n\n1,1535.3,-inf\n", 4, "must be finite"),
    ("0,inf,13\n", 2, "must be finite"),
], ids=["repeated-area", "nan-base", "infinite-sensitivity", "infinite-base"])
def test_repeated_area_or_non_finite_value_names_its_line(tmp_path, rows, line, message):
    path = tmp_path / "cal.csv"
    path.write_text("aa_index,base_wavelength_nm,sensitivity_nm_per_invm\n" + rows)
    with pytest.raises(ParseError, match=message) as info:
        load_calibration(path)
    assert info.value.line == line
