"""Physical constants, experiment parameters, unit handling and validation.

Every other module takes its numerical inputs from here; nothing else
hard-codes a physical value.  Internally everything is SI.

One rule resolves the two derived knobs: eps_uv and omega_c follow l
and R*C (eps_uv = l/100, omega_c = 100/(R*C)) unless given explicitly,
whether the input comes from a file, ``--set``, a sweep point or the
constructor.  :class:`ExperimentParams` applies it itself, so every
route that builds a parameter set gets the same answer.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass


# CODATA-style fixed constants (not configurable).
HBAR = 1.054571817e-34      # J s
E_CHARGE = 1.602176634e-19  # C
EPS0 = 8.8541878128e-12     # F/m
KB = 1.380649e-23           # J/K


class ValidationError(ValueError):
    """Raised when a parameter set violates a hard invariant.

    ``violations`` lists every failed condition with the offending values.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid parameters: " + "; ".join(self.violations))


class FastDetectorWarning(UserWarning):
    """RC time is not small compared to the transit time l/v_g."""


class RegimeWarning(UserWarning):
    """Parameters are outside the regime the regularized formulas assume."""


def thermal_energy(temperature: float) -> float:
    """kB*T in joules; the scale extracted energy must beat."""
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    return KB * temperature


@dataclass(frozen=True)
class ExperimentParams:
    """All physical inputs of the experiment, in SI units.

    l doubles as the default width of both Gaussian windows; b is the
    length of the feedback and coupling regions; d the channel
    separation inside the coupling region; L the distance from the
    feedback region to the coupling region.  The elapsed time T before
    the feedback packet exists is stored as the ratio v_g*T/L.

    ``ExperimentParams()`` is the parameter set quoted for the proposed
    experiment.  eps_uv and omega_c left at None are derived from the
    other fields on construction: eps_uv = l/100 (far below every window
    width) and omega_c = 100/(R*C), which lands the detector noise on
    the expected ~10 micro-volt order; both are knobs, not measured
    quantities.  A value given explicitly is kept.
    """

    v_g: float = 1.0e6            # m/s, edge magnetoplasmon group velocity
    R: float = 1.0e4              # ohm, amplifier input resistance
    C: float = 1.0e-14            # F, gate capacitance
    l: float = 1.0e-5             # m, typical length scale / window sigma
    b: float = 1.0e-5             # m, length of feedback and coupling regions
    d: float = 1.0e-5             # m, channel separation in the coupling region
    L: float = 2.0e-5             # m, feedback-to-coupling distance
    T_delay_ratio: float = 0.01   # dimensionless, v_g*T / L
    nu_S: float = 3.0             # filling factor, sensed channel
    nu_U: float = 6.0             # filling factor, feedback channel
    lambda_amp: float = 10.0      # dimensionless feedback window amplitude
    eps_r: float = 10.0           # relative permittivity of the host
    temperature: float = 0.01     # K
    eps_uv: float | None = None   # m, short-distance regulator (None: l/100)
    omega_c: float | None = None  # rad/s, detector frequency cutoff (None: 100/RC)

    def __post_init__(self):
        if self.eps_uv is None:
            object.__setattr__(self, "eps_uv", self.l / 100.0)
        if self.omega_c is None:
            # R*C = 0 is left for validate() to report, not ZeroDivisionError
            rc = self.rc_time
            object.__setattr__(self, "omega_c", 100.0 / rc if rc else math.inf)

    # Derived quantities -------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Absolute permittivity eps_r * eps0, F/m."""
        return self.eps_r * EPS0

    @property
    def rc_time(self) -> float:
        return self.R * self.C

    @property
    def transit_time(self) -> float:
        """l / v_g, the time scale of the sensed window."""
        return self.l / self.v_g

    @property
    def T_delay(self) -> float:
        """Elapsed time T until the feedback packet exists, seconds."""
        return self.T_delay_ratio * self.L / self.v_g

    @property
    def separation_AB(self) -> float:
        """Distance between the measured region and the coupling region."""
        return self.L + self.v_g * self.T_delay

    def replace(self, **changes) -> "ExperimentParams":
        """Copy with ``changes`` applied field by field.

        eps_uv and omega_c are copied as they are, not re-derived; build
        through ``ExperimentParams(**inputs)`` or
        ``load_params(overrides=...)`` to have them follow l and R*C.
        """
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


#: unit label expected for each parameter in parameter files (informational)
PARAM_UNITS = {
    "v_g": "m/s", "R": "ohm", "C": "F", "l": "m", "b": "m", "d": "m",
    "L": "m", "T_delay_ratio": "1", "nu_S": "1", "nu_U": "1",
    "lambda_amp": "1", "eps_r": "1", "temperature": "K",
    "eps_uv": "m", "omega_c": "rad/s",
}

#: fields that follow other fields unless given explicitly
DERIVED_FIELDS = ("eps_uv", "omega_c")

_POSITIVE_FIELDS = (
    "v_g", "R", "C", "l", "b", "d", "L", "nu_S", "nu_U", "eps_r",
    "eps_uv", "omega_c",
)


def default_paper_params() -> ExperimentParams:
    """Parameter set quoted for the proposed experiment, the same as
    ``ExperimentParams()``: eps_uv = l/100 and omega_c = 100/(R*C)."""
    return ExperimentParams()


def validate(params: ExperimentParams) -> ExperimentParams:
    """Check every invariant; returns the params unchanged if they hold.

    Non-positive physical inputs raise :class:`ValidationError` listing
    every violation.  The fast-detector condition (RC << l/v_g) and the
    L >= 2l regularization regime are surfaced as warnings, because the
    quoted experimental defaults themselves sit outside the fast-detector
    condition and the estimates are order-of-magnitude only.
    """
    violations = []
    for name in _POSITIVE_FIELDS:
        value = getattr(params, name)
        if not (value > 0) or not math.isfinite(value):
            violations.append(f"NonPositiveParameter: {name} = {value!r}")
    if params.lambda_amp < 0 or not math.isfinite(params.lambda_amp):
        violations.append(f"NonPositiveParameter: lambda_amp = {params.lambda_amp!r}")
    if params.temperature < 0 or not math.isfinite(params.temperature):
        violations.append(f"NonPositiveParameter: temperature = {params.temperature!r}")
    if not (0 < params.T_delay_ratio < 1):
        violations.append(
            f"T_delay_ratio must be in (0, 1), got {params.T_delay_ratio!r}")
    if violations:
        raise ValidationError(violations)

    if params.rc_time > 0.1 * params.transit_time:
        warnings.warn(
            f"fast-detector condition violated: RC = {params.rc_time:.3g} s "
            f"vs l/v_g = {params.transit_time:.3g} s (threshold 0.1*l/v_g)",
            FastDetectorWarning, stacklevel=2)
    if params.L < 2.0 * params.l:
        warnings.warn(
            f"L = {params.L:.3g} m < 2l = {2 * params.l:.3g} m: the "
            "regularized separation formulas are outside their validity range",
            RegimeWarning, stacklevel=2)
    return params


# Parameter files ------------------------------------------------------

class ParamFileError(ValueError):
    """Malformed parameter file (the message carries the line number) or
    unknown parameter key."""


def parse_param_line(line: str):
    """Parse one ``key = value [unit]`` line; returns (key, value) or None."""
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    if "=" not in stripped:
        raise ValueError(f"expected 'key = value [unit]', got {line.strip()!r}")
    key, rhs = stripped.split("=", 1)
    key = key.strip()
    tokens = rhs.split()
    if not tokens:
        raise ValueError(f"missing value for key {key!r}")
    try:
        value = float(tokens[0])
    except ValueError:
        raise ValueError(f"value for {key!r} is not a number: {tokens[0]!r}")
    if len(tokens) > 2:
        raise ValueError(f"trailing tokens after value for {key!r}: {tokens[2:]}")
    if key not in PARAM_UNITS:
        raise ValueError(f"unknown key {key!r}")
    if len(tokens) == 2 and tokens[1] != PARAM_UNITS[key]:
        raise ValueError(
            f"unit for {key!r} should be {PARAM_UNITS[key]!r}, got {tokens[1]!r}")
    return key, value


def read_inputs(path=None, overrides=None) -> dict:
    """The parameter values given explicitly, {key: value}.

    ``path`` is a UTF-8 file of ``key = value [unit]`` lines;
    ``overrides`` is a mapping applied on top of it.  Raises
    :class:`ParamFileError` for a malformed line (with its line number)
    or an unknown key.
    """
    values = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    parsed = parse_param_line(line)
                except ValueError as exc:
                    raise ParamFileError(f"{path}:{lineno}: {exc}") from exc
                if parsed is not None:
                    values[parsed[0]] = parsed[1]
    for key, value in (overrides or {}).items():
        if key not in PARAM_UNITS:
            raise ParamFileError(f"unknown override key {key!r}")
        values[key] = float(value)
    return values


def load_params(path=None, overrides=None) -> ExperimentParams:
    """Resolve a parameter set from an optional file and overrides
    (see :func:`read_inputs`).

    Keys given by neither keep their quoted-experiment defaults, and the
    DERIVED_FIELDS eps_uv and omega_c follow l and R*C unless given
    explicitly (see :class:`ExperimentParams`).  ``load_params()`` is
    the quoted experiment.
    """
    return ExperimentParams(**read_inputs(path, overrides))
