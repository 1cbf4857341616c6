"""Parameter defaults, validation, and parameter-file parsing."""

import dataclasses
import math
import re

import pytest

from edgeqet import cli
from edgeqet import params as P


def test_defaults_are_the_quoted_experiment(params):
    assert params.v_g == 1e6
    assert params.R == 1e4
    assert params.C == 1e-14
    assert params.l == params.b == params.d == 1e-5
    assert params.L == 2 * params.l
    assert params.nu_S == 3 and params.nu_U == 6
    assert params.lambda_amp == 10
    assert params.eps_r == 10
    # derived knobs
    assert params.eps_uv == params.l / 100
    assert params.omega_c == 100 / (params.R * params.C)
    # the constructor, the named default and empty inputs agree exactly
    assert (P.ExperimentParams() == P.default_paper_params()
            == P.ExperimentParams(**P.read_inputs()))


def test_derived_quantities(params):
    assert params.rc_time == pytest.approx(1e-10)
    assert params.transit_time == pytest.approx(1e-11)
    assert params.T_delay == pytest.approx(0.01 * params.L / params.v_g)
    assert params.epsilon == pytest.approx(10 * P.EPS0)


def test_replace_is_functional(params):
    p2 = params.replace(L=4e-5)
    assert p2.L == 4e-5
    assert params.L == 2e-5  # original untouched


def test_validate_passes_defaults_with_fast_detector_warning(params):
    # the quoted numbers themselves violate RC << l/v_g; that must warn,
    # not fail
    with pytest.warns(P.FastDetectorWarning):
        assert P.validate(params) is params


def test_validate_warns_below_separation_regime(params):
    with pytest.warns(P.RegimeWarning):
        P.validate(params.replace(L=1.5 * params.l, R=1e-2))


def test_validate_collects_all_violations(params):
    bad = params.replace(v_g=-1.0, nu_S=0.0, T_delay_ratio=2.0)
    with pytest.raises(P.ValidationError) as exc:
        P.validate(bad)
    joined = " ".join(exc.value.violations)
    assert "v_g" in joined and "nu_S" in joined and "T_delay_ratio" in joined
    assert len(exc.value.violations) == 3


@pytest.mark.parametrize("field, value, phrase", [
    ("nu_S", 0.0, "is not > 0"), ("d", -0.0, "is not > 0"),
    ("v_g", math.nan, "is not finite"), ("eps_uv", math.inf, "is not finite"),
    ("lambda_amp", -1.0, "is not >= 0"),
    ("temperature", math.inf, "is not finite"),
])
def test_validate_names_the_broken_rule(params, field, value, phrase):
    """One violation per field, saying which rule its value broke."""
    with pytest.raises(P.ValidationError) as exc:
        P.validate(params.replace(**{field: value}))
    assert exc.value.violations == [f"{field} = {value!r} {phrase}"]


def test_parameter_tables_cover_every_field():
    """A field missing from PARAM_UNITS cannot be set from a file or
    --set; one missing from both bound tuples is never validated."""
    fields = dataclasses.fields(P.ExperimentParams)
    names = [f.name for f in fields]
    assert sorted(P.PARAM_UNITS) == sorted(names)
    for name in names:
        bounds = (name in P._POSITIVE_FIELDS) + (
            name in P._NON_NEGATIVE_FIELDS)
        assert bounds == (name != "T_delay_ratio"), name
    assert sorted(P.DERIVED_FIELDS) == sorted(
        f.name for f in fields if f.default is None)


def test_thermal_energy():
    assert P.thermal_energy(0.0) == 0.0
    assert P.thermal_energy(0.01) == pytest.approx(P.KB * 0.01)
    with pytest.raises(ValueError):
        P.thermal_energy(-1.0)


# parameter files --------------------------------------------------------

def test_parse_param_line_variants():
    assert P.parse_param_line("v_g = 2e6 m/s") == ("v_g", 2e6)
    assert P.parse_param_line("nu_S = 4") == ("nu_S", 4.0)
    assert P.parse_param_line("  # just a comment") is None
    assert P.parse_param_line("") is None
    assert P.parse_param_line("L = 3e-5 m  # with comment") == ("L", 3e-5)


@pytest.mark.parametrize("line", [
    "v_g 2e6",            # no equals
    "v_g = ",             # no value
    "v_g = fast",         # not a number
    "warp = 9",           # unknown key
    "v_g = 2e6 m/s bogus",  # trailing tokens
    "v_g = 2e6 km/h",     # wrong unit label
])
def test_parse_param_line_rejects(line):
    with pytest.raises(ValueError):
        P.parse_param_line(line)


def _resolve(path=None, overrides=None):
    """The parameter set the given inputs resolve to, as the CLI builds it."""
    return P.ExperimentParams(**P.read_inputs(path, overrides))


def test_read_inputs_file_and_overrides(tmp_path):
    f = tmp_path / "run.par"
    f.write_text("# experiment\nL = 4e-5 m\nnu_S = 4\n", encoding="utf-8")
    p = _resolve(f)
    assert p.L == 4e-5 and p.nu_S == 4.0
    assert p.v_g == 1e6  # default retained
    p = _resolve(f, overrides={"nu_S": 5})
    assert p.nu_S == 5.0


def test_read_inputs_recomputes_dependent_defaults(tmp_path, capsys):
    f = tmp_path / "run.par"
    f.write_text("l = 2e-5 m\nR = 2e4 ohm\n", encoding="utf-8")
    p = _resolve(f)
    assert p.eps_uv == p.l / 100
    assert p.omega_c == 100 / (p.R * p.C)
    # the same inputs as overrides, constructor arguments or --set agree
    assert _resolve(overrides={"l": 2e-5, "R": 2e4}) == p
    assert P.ExperimentParams(l=2e-5, R=2e4) == p
    with pytest.warns(P.RegimeWarning):  # L = 2e-5 is now below 2l
        assert cli.main(["validate", "--set", "l=2e-5", "--set", "R=2e4"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"eps_uv\s+= 2e-07 m", out)
    assert re.search(r"omega_c\s+= 5e\+11 rad/s", out)
    # explicit values win on every route
    f.write_text("l = 2e-5 m\neps_uv = 1e-9 m\n", encoding="utf-8")
    assert _resolve(f).eps_uv == 1e-9
    assert _resolve(overrides={"l": 2e-5, "eps_uv": 1e-9}).eps_uv == 1e-9
    assert P.ExperimentParams(l=2e-5, eps_uv=1e-9).eps_uv == 1e-9


def test_read_inputs_reports_line_numbers(tmp_path):
    f = tmp_path / "bad.par"
    f.write_text("v_g = 1e6 m/s\nL = snail\n", encoding="utf-8")
    with pytest.raises(P.ParamFileError, match="2"):
        P.read_inputs(f)
    good = tmp_path / "good.par"
    good.write_text("v_g = 1e6 m/s\n", encoding="utf-8")
    with pytest.raises(P.ParamFileError, match="warp"):
        P.read_inputs(good, overrides={"warp": 9})


def test_t_delay_is_one_percent_of_transit(params):
    assert params.v_g * params.T_delay / params.L == pytest.approx(0.01)
    assert math.isclose(params.T_delay, 2e-13, rel_tol=1e-12)
