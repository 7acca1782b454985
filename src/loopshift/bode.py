"""Loop-shaping diagnostics: Bode tables, crossover frequency, gain metrics,
and CSV/SVG emitters.

Sample time is fixed at 1, so the frequency axis is in cycles per iteration
and Nyquist sits at 0.5.  Magnitudes are exact; the axis labeling is a
convention of this tool.  Gains and phases come from ``lti.freq_response``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .certify import linspace
from .errors import InvalidParameterError
from .lti import LEVEL_RTOL, RationalTF, _chebyshev_roots, _circle_gains, freq_response

NYQUIST = 0.5
_LOW_HZ = 1e-3  # where gain_metrics reads the low-frequency gain
_WIDTH, _HEIGHT = 800, 480  # the SVG canvas, px

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#17becf", "#8c564b", "#e377c2",
)


@dataclass(frozen=True)
class FrequencyRow:
    """One Bode-table row; phase is the raw principal value in (-180, 180]
    with the unwrapped phase carried as an extra column."""

    f_hz: float
    mag_db: float
    phase_deg: float
    phase_unwrapped_deg: float

    @property
    def infinite(self) -> bool:
        return not math.isfinite(self.mag_db)


def _gain(value: complex) -> float:
    """|value|, inf where it overflows (``abs`` raises there)."""
    return math.hypot(value.real, value.imag)


def _mag_db(mag: float) -> float:
    if not math.isfinite(mag):
        return math.inf
    if mag == 0.0:
        return -math.inf
    return 20.0 * math.log10(mag)


def bode_table(tf: RationalTF, f_min: float = 1e-4, n: int = 500) -> list[FrequencyRow]:
    """Rows of ``freq_response`` at ``n`` log-spaced frequencies in [f_min,
    0.5].  A pole on a sampled point flags its row infinite (+inf dB); rows
    of zero or infinite gain have nan phases.  The phase unwraps as
    ``np.unwrap`` does over the other rows: a jump of pi or more is brought
    back into [-pi, pi], with -pi after a positive step reading +pi."""
    if not 0.0 < f_min < NYQUIST:
        raise InvalidParameterError(f"f_min must lie in (0, 0.5), got {f_min}")
    if n < 2:
        raise InvalidParameterError(f"need at least 2 frequencies, got {n}")
    fs = [10.0 ** e for e in linspace(math.log10(f_min), math.log10(NYQUIST), n)]
    fs[0], fs[-1] = f_min, NYQUIST
    rows, last, shift = [], None, 0.0
    for f in fs:
        value = freq_response(tf, f)
        mag = _gain(value)
        phase = unwrapped = math.nan
        if 0.0 < mag < math.inf:
            phase = unwrapped = cmath.phase(value)
            if last is not None:
                step = phase - last
                if abs(step) >= math.pi:
                    wrapped = (step + math.pi) % (2.0 * math.pi) - math.pi
                    shift += (math.pi if wrapped == -math.pi and step > 0.0 else wrapped) - step
                unwrapped = phase + shift
            last = phase
        degrees = math.degrees(phase)
        rows.append(FrequencyRow(f_hz=f, mag_db=_mag_db(mag),
                                 phase_deg=degrees + 360.0 if degrees <= -180.0 else degrees,
                                 phase_unwrapped_deg=math.degrees(unwrapped)))
    return rows


def crossover_frequency(tf: RationalTF) -> float | None:
    """Smallest f in (0, 0.5] where the gain magnitude crosses 1, else None.
    With x = cos(2 pi f), crossings are the real roots in (-1, 1) of the
    Chebyshev series of |N|^2 - |D|^2 where it changes sign, the largest root
    first; the gain is even about f = 0 and 0.5: roots within LEVEL_RTOL of
    x = +-1 only touch.  Crossings are read scale-free: num and den are
    first divided by the power of two that brings their largest coefficient
    into [0.5, 1), exactly, so |N|^2 cannot overflow."""
    shift = -math.frexp(max(map(abs, tf.num + tf.den)))[1]
    gains = _circle_gains(*(tuple(math.ldexp(c, shift) for c in p) for p in (tf.num, tf.den)))
    series = [a - b for a, b in zip(gains.num_series, gains.den_series)]
    xs = sorted({-1.0, 1.0} | {r.real for r in _chebyshev_roots(series)
                               if abs(r.real) < 1.0 - LEVEL_RTOL})
    # the sign is constant between consecutive roots: read it at midpoints
    above = [_gain(freq_response(tf, math.acos(0.5 * (a + b)) / (2.0 * math.pi))) > 1.0
             for a, b in zip(xs, xs[1:])]
    k = next((k for k in range(len(above) - 1, 0, -1) if above[k] != above[k - 1]), 0)
    return math.acos(xs[k]) / (2.0 * math.pi) if k else None


@dataclass(frozen=True)
class GainMetrics:
    low_gain_db: float
    high_gain_db: float
    crossover_hz: float | None
    slope_at_crossover_db_per_decade: float | None


def gain_metrics(tf: RationalTF) -> GainMetrics:
    """Low/high-frequency gains, at 1e-3 cycles/iteration and at Nyquist,
    plus the loop-gain slope near crossover.

    The slope is a central difference of magnitude in dB over a half-decade
    bracket centered at the crossover frequency, clipped at Nyquist; "near
    crossover" has no canonical width, half a decade is this tool's
    convention.
    """
    low = _mag_db(_gain(freq_response(tf, _LOW_HZ)))
    high = _mag_db(_gain(freq_response(tf, NYQUIST)))
    fc = crossover_frequency(tf)
    if fc is None:
        return GainMetrics(low, high, None, None)
    f1 = fc * 10.0 ** -0.25
    f2 = min(fc * 10.0 ** 0.25, NYQUIST)
    db1 = _mag_db(_gain(freq_response(tf, f1)))
    db2 = _mag_db(_gain(freq_response(tf, f2)))
    slope = (db2 - db1) / (math.log10(f2) - math.log10(f1))
    return GainMetrics(low, high, fc, slope)


def bode_csv_text(rows: list[FrequencyRow]) -> str:
    lines = ["f_hz,mag_db,phase_deg,phase_unwrapped_deg"]
    for row in rows:
        lines.append(
            f"{row.f_hz!r},{row.mag_db!r},{row.phase_deg!r},{row.phase_unwrapped_deg!r}"
        )
    return "\n".join(lines) + "\n"


def _px(v: float) -> str:
    """An SVG coordinate: a float to two decimals, an integer as it is."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#ddd",
          width: int = 1) -> str:
    return (f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x: float, y: float, size: int, body: str, anchor: str | None = "middle",
          rotated: bool = False) -> str:
    """A sans-serif label at (x, y), turned a quarter left about it when ``rotated``."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {_px(x)} {_px(y)})"' if rotated else ""
    return (f'<text x="{_px(x)}" y="{_px(y)}" font-size="{size}"{anchor} '
            f'font-family="sans-serif"{turn}>{body}</text>')


def bode_svg_text(curves: list[tuple[str, list[FrequencyRow]]]) -> str:
    """Self-contained SVG magnitude plot: log-frequency axis, one polyline
    per labelled curve, legend from the labels.  No timestamps or external
    assets, so identical inputs give identical bytes."""
    if not curves:
        raise InvalidParameterError("need at least one curve")
    margin_l, margin_r, margin_t, margin_b = 60, 20, 20, 42
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b
    f_values = [r.f_hz for _, rows in curves for r in rows]
    mags = [r.mag_db for _, rows in curves for r in rows if math.isfinite(r.mag_db)]
    if not mags:
        raise InvalidParameterError("no finite magnitudes to plot")
    log_lo, log_hi = math.log10(min(f_values)), math.log10(max(f_values))
    y_lo = 10.0 * math.floor(min(mags) / 10.0)
    y_hi = 10.0 * math.ceil(max(mags) / 10.0)
    if y_hi == y_lo:
        y_hi += 10.0

    def x_px(f: float) -> float:
        return margin_l + (math.log10(f) - log_lo) / (log_hi - log_lo) * plot_w

    def y_px(db: float) -> float:
        return margin_t + (y_hi - db) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    # decade grid lines and x labels
    for d in range(math.ceil(log_lo), math.floor(log_hi) + 1):
        x = x_px(10.0 ** d)
        parts += [_line(x, margin_t, x, margin_t + plot_h),
                  _text(x, margin_t + plot_h + 16, 11, f"1e{d}")]
    y_step = 10.0
    while (y_hi - y_lo) / y_step > 8:
        y_step *= 2.0
    level = y_lo
    while level <= y_hi:
        y = y_px(level)
        parts += [_line(margin_l, y, margin_l + plot_w, y),
                  _text(margin_l - 6, y + 4, 11, f"{level:g}", anchor="end")]
        level += y_step
    parts += [_text(margin_l + plot_w / 2, _HEIGHT - 8, 12, "frequency (cycles/iteration)"),
              _text(14, margin_t + plot_h / 2, 12, "magnitude (dB)", rotated=True)]
    for idx, (label, rows) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{x_px(r.f_hz):.2f},{y_px(min(max(r.mag_db, y_lo), y_hi)):.2f}"
            for r in rows
            if math.isfinite(r.mag_db)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin_t + 14 + 16 * idx
        lx = margin_l + plot_w - 180
        parts += [_line(lx, ly - 4, lx + 22, ly - 4, color, 2),
                  _text(lx + 28, ly, 11, label, anchor=None)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
