"""Adaptive integration of the RBK system in its three charts.

One explicit embedded pair, DOP853 (the Dormand-Prince 8(5,3) pair of
Hairer, Norsett and Wanner, Solving ODEs I, II.5, with its 7th-order dense
output, II.6), under Hairer's step-size control drives everything: density
runs of u = (1 + t) c in s = log(1 + t), which serve both time charts and
differ only in their sample grids, and finite-y blowup runs of the phi chart
in s = log(1 + tau), sampled on a grid uniform in s.  Auxiliary accumulators
(the chart changes y = int c_N, tau = int c_1 = int phi_1 dy, and int nu) are
appended to the state vector and integrated under the same error control.

The system is non-stiff in every chart at desk scale: the nonlinearity is a
decaying quadratic in t and a polynomially growing one in tau, so an explicit
pair with local error control is the right tool.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import core
from .core import law_dimension, rbk_field

__all__ = [
    "IntegrationError",
    "IntegrationStats",
    "IntegratorSettings",
    "Trajectory",
    "density_start",
    "integrate_adaptive",
    "integrate_logtime",
    "integrate_phi_to_blowup",
    "integrate_rbk",
    "phi_start",
    "sample_grid",
]


def _is_count(n) -> bool:
    """n is an integer and not a bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


class IntegrationError(RuntimeError):
    """Numerical failure: step underflow, step budget exhausted, a
    non-finite state that error control could not avoid, or a phi-chart run
    whose y stopped resolving before phi_1 reached the cap."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Error-control knobs of the embedded pair.

    atol is also the negativity guard of the density charts: a density below
    -atol rejects the step, and values in (-atol, 0) are clamped to exact zero.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        # a bool is a number to Python, but True is no tolerance or budget
        if any(isinstance(v, bool) or not 0 < v < math.inf for v in (self.rtol, self.atol)):
            raise ValueError("rtol and atol must be finite and positive")
        if not _is_count(self.max_steps) or self.max_steps <= 0:
            raise ValueError("max_steps must be a positive integer")


@dataclass(frozen=True)
class IntegrationStats:
    """What the integrator did on one run.

    accepted counts accepted steps; rejected_error, rejected_guard and
    rejected_nonfinite count rejected attempts by cause: the local error
    test, a density below -atol, and a stage rate that raised or
    a non-finite new state, rate there, error or dense output.  clamped
    counts accepted steps whose densities were clamped to zero, rhs_evals
    the calls of the rate function (dense-output stages included), and
    h_min/h_max bound the accepted step sizes in s.
    """

    accepted: int = 0
    rejected_error: int = 0
    rejected_guard: int = 0
    rejected_nonfinite: int = 0
    clamped: int = 0
    rhs_evals: int = 0
    h_min: float = math.inf
    h_max: float = 0.0

    @property
    def rejected(self) -> int:
        return self.rejected_error + self.rejected_guard + self.rejected_nonfinite


@dataclass(frozen=True)
class Trajectory:
    """Immutable ordered samples of one chart.

    chart names the abscissa, one of CHARTS: "t" for the densities c of both
    time drivers, "y" for the phi of the phi driver, and "s" for a run of
    integrate_adaptive, in the variable it integrated over.  aux maps
    accumulator names to per-sample values integrated alongside the state.
    stats holds the integrator's counters when the trajectory came out of a
    run.
    """

    CHARTS = ("t", "s", "y")

    chart: str
    abscissae: np.ndarray
    states: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    settings: IntegratorSettings = field(default_factory=IntegratorSettings)
    stats: IntegrationStats | None = None

    def __post_init__(self):
        if self.chart not in self.CHARTS:
            raise ValueError(f"unknown chart {self.chart!r}; expected one of {self.CHARTS}")
        x = np.asarray(self.abscissae, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if x.ndim != 1 or s.ndim != 2 or s.shape[0] != x.size:
            raise ValueError("need matching 1-D abscissae and (n, dim) states")
        if not (np.diff(x) > 0).all():  # NaN fails it too
            raise ValueError("abscissae must be strictly increasing")
        x = x.copy()
        s = s.copy()
        x.setflags(write=False)
        s.setflags(write=False)
        aux = {}
        slack = 1e-9 * max(1.0, float(np.max(np.abs(s))) if s.size else 1.0)
        for name, series in self.aux.items():
            a = np.asarray(series, dtype=float).copy()
            if a.shape != x.shape:
                raise ValueError(f"aux series {name!r} length mismatch")
            if not (np.diff(a) >= -slack).all():
                raise ValueError(f"aux accumulator {name!r} must be nondecreasing")
            a.setflags(write=False)
            aux[name] = a
        object.__setattr__(self, "abscissae", x)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "aux", aux)

    @property
    def n_samples(self) -> int:
        return self.abscissae.size

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_abscissa(self) -> float:
        return float(self.abscissae[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# the t chart samples the trailing six decades of [0, t_end]
_T_GRID_DECADES = 6.0


def sample_grid(chart: str, t_end: float, points_per_decade: int):
    """(s, t) of the sample grid of a "t" or "log-t" run to t_end: both start
    at 0 and end on the run's span end in s = log(1 + t).  The log-t grid is
    uniform in s, the logs of a geometric grid over [1, 1 + t_end], reported
    at t = e^s - 1.  The t grid is geometric in t over the trailing six
    decades (only t_end when points_per_decade is 0), taken at s = log1p(t)
    and reported at its own t, so the run lands on every grid point and ends
    on t_end.  t_end must be finite and positive and points_per_decade a
    nonnegative integer, checked before any array is built; a grid that
    cannot be built is refused naming t_end."""
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    if not _is_count(points_per_decade) or points_per_decade < 0:
        raise ValueError(
            f"points_per_decade must be a nonnegative integer, got {points_per_decade!r}"
        )
    log_t = chart == "log-t"
    grid = [t_end]
    if log_t or points_per_decade > 0:
        lo, hi = (1.0, 1.0 + t_end) if log_t else (t_end * 10.0 ** (-_T_GRID_DECADES), t_end)
        try:
            if not 0 < lo < hi:
                raise ValueError("1 + t_end rounds to 1" if log_t else "its start underflows to 0")
            n = max(2, int(round(math.log10(hi / lo) * max(points_per_decade, 1))) + 1)
            grid = np.geomspace(lo, hi, n)
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ValueError(f"no sample grid to t_end={t_end}: {exc}") from exc
    if log_t:
        s = np.log(grid)
        return s, np.expm1(s)
    t = np.concatenate(([0.0], grid))
    return np.log1p(t), t


# accumulators of the density charts: y = int c_N dt, tau = int c_1 dt and
# nu_int = int nu dt, packed after c in this order
_DENSITY_AUX = ("y", "tau", "nu_int")


def _density_rate(dim: int):
    """Packed rate of every density run, which integrates u = (1 + t) c in
    s = log(1 + t): the field is quadratic, so du/ds = u + field(u) for
    u = z[:dim], then the rates u_N, u_1 and sum u of the accumulators in
    _DENSITY_AUX order, the t-chart rates of y, tau and nu_int because
    int c dt = int u ds."""
    n = dim + 3

    def rate(s, z):
        u = z[:dim]
        out = np.empty(n)
        # looked up at call time, so a wrapper installed on the module
        # attribute (the benchmark's traced run) sees every field call
        np.add(rbk_field(u), u, out=out[:dim])
        out[dim] = u[-1]
        out[dim + 1] = u[0]
        out[dim + 2] = np.add.reduce(u)
        return out

    return rate


# ---------------------------------------------------------------------------
# DOP853: the Dormand-Prince 8(5,3) pair with its 7th-order dense output
# ---------------------------------------------------------------------------

# Coefficients of DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, 2nd ed.,
# II.5 and II.6).  Stages are numbered from 1 as in the book: k[i - 1] holds
# stage i, k[12] the rate at the new point (stage 13, reused as stage 1 of
# the next step) and k[13..15] the dense-output stages 14..16.


def _row(size, weights):
    """A row of size weights from {stage number: weight}, zero elsewhere."""
    row = np.zeros(size)
    for i, w in weights.items():
        row[i - 1] = w
    return row


# (node, row of the Butcher matrix) of stages 2..12
_STAGES = (
    (0.526001519587677318785587544488e-01, _row(1, {1: 5.26001519587677318785587544488e-2})),
    (0.789002279381515978178381316732e-01, _row(2, {
        1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2})),
    (0.118350341907227396726757197510, _row(3, {
        1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2})),
    (0.281649658092772603273242802490, _row(4, {
        1: 2.41365134159266685502369798665e-1, 3: -8.84549479328286085344864962717e-1,
        4: 9.24834003261792003115737966543e-1})),
    (0.333333333333333333333333333333, _row(5, {
        1: 3.7037037037037037037037037037e-2, 4: 1.70828608729473871279604482173e-1,
        5: 1.25467687566822425016691814123e-1})),
    (0.25, _row(6, {
        1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
        5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2})),
    (0.307692307692307692307692307692, _row(7, {
        1: 3.70920001185047927108779319836e-2, 4: 1.70383925712239993810214054705e-1,
        5: 1.07262030446373284651809199168e-1, 6: -1.53194377486244017527936158236e-2,
        7: 8.27378916381402288758473766002e-3})),
    (0.651282051282051282051282051282, _row(8, {
        1: 6.24110958716075717114429577812e-1, 4: -3.36089262944694129406857109825,
        5: -8.68219346841726006818189891453e-1, 6: 2.75920996994467083049415600797e1,
        7: 2.01540675504778934086186788979e1, 8: -4.34898841810699588477366255144e1})),
    (0.6, _row(9, {
        1: 4.77662536438264365890433908527e-1, 4: -2.48811461997166764192642586468,
        5: -5.90290826836842996371446475743e-1, 6: 2.12300514481811942347288949897e1,
        7: 1.52792336328824235832596922938e1, 8: -3.32882109689848629194453265587e1,
        9: -2.03312017085086261358222928593e-2})),
    (0.857142857142857142857142857142, _row(10, {
        1: -9.3714243008598732571704021658e-1, 4: 5.18637242884406370830023853209,
        5: 1.09143734899672957818500254654, 6: -8.14978701074692612513997267357,
        7: -1.85200656599969598641566180701e1, 8: 2.27394870993505042818970056734e1,
        9: 2.49360555267965238987089396762, 10: -3.0467644718982195003823669022})),
    (1.0, _row(11, {
        1: 2.27331014751653820792359768449, 4: -1.05344954667372501984066689879e1,
        5: -2.00087205822486249909675718444, 6: -1.79589318631187989172765950534e1,
        7: 2.79488845294199600508499808837e1, 8: -2.85899827713502369474065508674,
        9: -8.87285693353062954433549289258, 10: 1.23605671757943030647266201528e1,
        11: 6.43392746015763530355970484046e-1})),
)
# the 8th-order weights
_B = _row(12, {
    1: 5.42937341165687622380535766363e-2, 6: 4.45031289275240888144113950566,
    7: 1.89151789931450038304281599044, 8: -5.8012039600105847814672114227,
    9: 3.1116436695781989440891606237e-1, 10: -1.52160949662516078556178806805e-1,
    11: 2.01365400804030348374776537501e-1, 12: 4.47106157277725905176885569043e-2,
})
# the weights of the 5th-order error estimate, then of the 3rd-order one
# (_B less the 3rd-order weights bhh)
_ERR = np.array([
    _row(12, {
        1: 0.1312004499419488073250102996e-01, 6: -0.1225156446376204440720569753e+01,
        7: -0.4957589496572501915214079952, 8: 0.1664377182454986536961530415e+01,
        9: -0.3503288487499736816886487290, 10: 0.3341791187130174790297318841,
        11: 0.8192320648511571246570742613e-01, 12: -0.2235530786388629525884427845e-01,
    }),
    _B - _row(12, {
        1: 0.244094488188976377952755905512, 9: 0.733846688281611857341361741547,
        12: 0.220588235294117647058823529412e-01,
    }),
])
# (node, row of the Butcher matrix) of the dense-output stages 14..16
_DENSE_STAGES = (
    (0.1, _row(13, {
        1: 5.61675022830479523392909219681e-2, 7: 2.53500210216624811088794765333e-1,
        8: -2.46239037470802489917441475441e-1, 9: -1.24191423263816360469010140626e-1,
        10: 1.5329179827876569731206322685e-1, 11: 8.20105229563468988491666602057e-3,
        12: 7.56789766054569976138603589584e-3, 13: -8.298e-3})),
    (0.2, _row(14, {
        1: 3.18346481635021405060768473261e-2, 6: 2.83009096723667755288322961402e-2,
        7: 5.35419883074385676223797384372e-2, 8: -5.49237485713909884646569340306e-2,
        11: -1.08347328697249322858509316994e-4, 12: 3.82571090835658412954920192323e-4,
        13: -3.40465008687404560802977114492e-4, 14: 1.41312443674632500278074618366e-1})),
    (0.777777777777777777777777777778, _row(15, {
        1: -4.28896301583791923408573538692e-1, 6: -4.69762141536116384314449447206,
        7: 7.68342119606259904184240953878, 8: 4.06898981839711007970213554331,
        9: 3.56727187455281109270669543021e-1, 13: -1.39902416515901462129418009734e-3,
        14: 2.9475147891527723389556272149, 15: -9.15095847217987001081870187138})),
)
# weights of the top four coefficients of the continuous extension (contd8)
_D = np.array([
    _row(16, {
        1: -0.84289382761090128651353491142e+01, 6: 0.56671495351937776962531783590,
        7: -0.30689499459498916912797304727e+01, 8: 0.23846676565120698287728149680e+01,
        9: 0.21170345824450282767155149946e+01, 10: -0.87139158377797299206789907490,
        11: 0.22404374302607882758541771650e+01, 12: 0.63157877876946881815570249290,
        13: -0.88990336451333310820698117400e-01, 14: 0.18148505520854727256656404962e+02,
        15: -0.91946323924783554000451984436e+01, 16: -0.44360363875948939664310572000e+01,
    }),
    _row(16, {
        1: 0.10427508642579134603413151009e+02, 6: 0.24228349177525818288430175319e+03,
        7: 0.16520045171727028198505394887e+03, 8: -0.37454675472269020279518312152e+03,
        9: -0.22113666853125306036270938578e+02, 10: 0.77334326684722638389603898808e+01,
        11: -0.30674084731089398182061213626e+02, 12: -0.93321305264302278729567221706e+01,
        13: 0.15697238121770843886131091075e+02, 14: -0.31139403219565177677282850411e+02,
        15: -0.93529243588444783865713862664e+01, 16: 0.35816841486394083752465898540e+02,
    }),
    _row(16, {
        1: 0.19985053242002433820987653617e+02, 6: -0.38703730874935176555105901742e+03,
        7: -0.18917813819516756882830838328e+03, 8: 0.52780815920542364900561016686e+03,
        9: -0.11573902539959630126141871134e+02, 10: 0.68812326946963000169666922661e+01,
        11: -0.10006050966910838403183860980e+01, 12: 0.77771377980534432092869265740,
        13: -0.27782057523535084065932004339e+01, 14: -0.60196695231264120758267380846e+02,
        15: 0.84320405506677161018159903784e+02, 16: 0.11992291136182789328035130030e+02,
    }),
    _row(16, {
        1: -0.25693933462703749003312586129e+02, 6: -0.15418974869023643374053993627e+03,
        7: -0.23152937917604549567536039109e+03, 8: 0.35763911791061412378285349910e+03,
        9: 0.93405324183624310003907691704e+02, 10: -0.37458323136451633156875139351e+02,
        11: 0.10409964950896230045147246184e+03, 12: 0.29840293426660503123344363579e+02,
        13: -0.43533456590011143754432175058e+02, 14: 0.96324553959188282948394950600e+02,
        15: -0.39177261675615439165231486172e+02, 16: -0.14972683625798562581422125276e+03,
    }),
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# step-size exponent of Hairer's controller for an 8th-order pair
_EXPONENT = 1.0 / 8.0
# smallest step relative to |s|; below it the step has underflowed
_H_FLOOR = 16 * np.finfo(float).eps


def _all_finite(x) -> bool:
    """Every entry of x is finite; the ufunc reduce skips ndarray.all's
    Python-level wrapper."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


def _error_norm(h, k, scale) -> float:
    """The error norm of a step of size h, as the code DOP853 takes it:
    h E5^2 / sqrt(n (E5^2 + 0.01 E3^2)), for E5^2 and E3^2 the sums of
    squares of the 5th- and 3rd-order estimates over scale, so about the RMS
    of the 5th-order one while the 3rd-order one is not ten times larger.
    Non-finite when a sum overflows."""
    q = _ERR @ k[:12]
    q /= scale
    q *= q
    err5, err3 = np.add.reduce(q, axis=1).tolist()
    denom = err5 + 0.01 * err3
    if not math.isfinite(denom):
        return math.nan
    return h * err5 / math.sqrt(denom * scale.size) if denom > 0.0 else 0.0


def _dense_output(z, z_new, h, k, theta):
    """States at the step fractions theta in (0, 1) of the step of size h
    from z to z_new, from DOP853's 7th-order continuous extension (contd8);
    k holds all 16 stage rates.  Rows are samples."""
    dz = z_new - z
    r3 = h * k[0] - dz
    r4 = dz - h * k[12] - r3
    d = _D @ k
    d *= h
    th = theta[:, None]
    th1 = 1.0 - th
    # Horner from the top coefficient, th and 1 - th alternating
    acc = th * d[3]
    for coef, factor in ((d[2], th1), (d[1], th), (d[0], th1), (r4, th), (r3, th1), (dz, th)):
        acc += coef
        acc *= factor
    acc += z
    return acc


def _initial_step(rhs, t0, z0, f0, t_span, scale_of):
    """Standard two-probe heuristic for the first trial step, with the
    pair's exponent."""
    scale = scale_of(z0)
    d0 = np.sqrt(np.mean((z0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    # a tenth of a span below 5e-323 rounds to 0: such a span is tried whole
    h0 = min(h0, 0.1 * t_span) or t_span
    z1 = z0 + h0 * f0
    try:
        f1 = rhs(t0 + h0, z1)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    except (ValueError, FloatingPointError, OverflowError):
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _EXPONENT
    return min(100 * h0, h1, t_span)


def _where(s: float, h_last) -> str:
    """Where a run failed: the abscissa s it integrates in and the last
    accepted h."""
    last = "no step accepted" if h_last is None else f"last accepted h={h_last:.6g}"
    return f"s={s:.6g} ({last})"


# a trial stage that overflows, divides by zero or turns NaN is rejected by
# the step loop below, so numpy need not also warn about it
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def integrate_adaptive(
    rate,
    z0,
    span,
    settings: IntegratorSettings | None = None,
    *,
    grid=None,
    aux_names=(),
    nonneg_guard: bool = True,
    stop_when=None,
) -> Trajectory:
    """Adaptive DOP853 integration of dz/ds = rate(s, z).

    z = (x, accumulators): the last len(aux_names) components of z are the
    named accumulators, reported in Trajectory.aux, and the leading ones the
    state x.  rate maps the whole vector, so a chart driver evaluates its
    field and its accumulator rates in one call.

    Local error per step is measured against atol + rtol*|z| componentwise,
    with the accumulators part of the controlled vector, in DOP853's norm
    (_error_norm); a step passes when it is at most 1.  The next step is the
    last one times 0.9 err^(-1/8), kept within [0.2, 10] times it.  Each
    attempt costs 12 rate calls, the last at the new point, which an
    accepted step hands on as the next step's first stage.  A non-finite
    rate at the initial state fails the run at once.
    Steps are clipped only onto the span end, so the step sequence does not
    depend on the grid.  Without a grid every accepted step is a sample.  With
    one, the samples are the start, every grid point in (start, end] and the
    last point (the span end, or the step that met stop_when); grid points
    strictly inside a step are filled from the pair's 7th-order continuous
    extension, whose 3 extra rate calls are made only on such a step (and
    reject it, like a failed stage, when one raises or the samples are not
    finite).
    State components that are exactly zero with a structurally zero rate stay
    exactly zero, bitwise, at steps and interpolated samples alike.

    nonneg_guard enforces the density invariant on x: a component below
    -atol rejects the step, and accepted or interpolated values below 0 are
    clamped to exact zero (undershoot beyond the guard cannot be accepted).
    stop_when(s, z), checked on the whole vector after each accepted step,
    ends the run early (used for blowup runs).  The returned trajectory is
    in chart "s": its abscissae stay in s (the drivers map them to t or y).
    It carries the run's IntegrationStats, and a failure names s and the
    last accepted h.
    """
    if settings is None:
        settings = IntegratorSettings()
    s0, s_end = float(span[0]), float(span[1])
    if not s_end > s0:
        raise ValueError(f"span must satisfy start < end, got {span}")
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim != 1 or not np.isfinite(z0).all():
        raise IntegrationError("non-finite or non-vector initial state")
    dim = z0.size - len(aux_names)
    if dim < 1:
        raise ValueError("z0 needs state components ahead of the accumulators")

    rtol, atol = settings.rtol, settings.atol

    def scale_of(z):
        return atol + rtol * np.abs(z)

    # the grid points in (s0, s_end]; grid_idx indexes the first still ahead
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        grid = grid[(grid > s0) & (grid <= s_end)]
        if (np.diff(grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")

    # k[0] always holds the rate at the current (s, z): FSAL after an
    # accepted step, untouched by a rejected one
    k = np.empty((16, z0.size))
    s, z = s0, z0
    k[0] = rate(s, z)
    if not _all_finite(k[0]):
        raise IntegrationError(f"non-finite rate at the initial state at {_where(s, None)}")
    h = _initial_step(rate, s, z, k[0], s_end - s0, scale_of)
    # near s = 0 the step floor is relative to the span, when shorter than 1e-30
    floor = min(1e-30, s_end - s0)
    n_evals = 2  # k[0] and the probe of _initial_step

    # the samples in pieces, joined once at the end: ss holds floats, zs rows
    # and whole dense-output blocks; accepted vectors are fresh arrays never
    # written again, so no copies
    ss = [s]
    zs = [z[None]]
    grid_idx = 0
    n_attempts = n_accepted = n_clamped = 0
    n_rej_error = n_rej_guard = n_rej_nonfinite = 0
    h_lo, h_hi, h_last = math.inf, 0.0, None
    stopped = False

    while s < s_end:
        if n_attempts >= settings.max_steps:
            raise IntegrationError(
                f"max_steps={settings.max_steps} exhausted at {_where(s, h_last)}: "
                "settings too tight for the requested span"
            )
        h_min = _H_FLOOR * max(abs(s), floor)
        if not h >= h_min or h == 0.0:  # also a NaN step, or h = 0 where h_min underflows
            raise IntegrationError(f"step size underflow at {_where(s, h_last)}")

        # clip onto the span end
        h_step = min(h, s_end - s)
        s_new = s_end if h_step >= s_end - s else s + h_step

        n_attempts += 1
        # a stage rate that raises, a non-finite new state, rate there or
        # error norm, and a dense output that fails all leave err non-finite
        # and reject the step
        stage, err = 0, math.nan
        try:
            for stage, (node, a_row) in enumerate(_STAGES, 1):
                k[stage] = rate(s + node * h_step, z + h_step * (a_row @ k[:stage]))
            z_new = z + h_step * (_B @ k[:12])
            stage = 12
            k[12] = rate(s_new, z_new)
            if _all_finite(z_new) and _all_finite(k[12]):
                scale = np.abs(z)
                np.maximum(scale, np.abs(z_new), out=scale)
                scale *= rtol
                scale += atol
                err = _error_norm(h_step, k, scale)
        except (ValueError, FloatingPointError, OverflowError):
            pass
        n_evals += stage

        clamp = guard_hit = False
        if nonneg_guard and math.isfinite(err):  # so z_new is finite too
            low = np.minimum.reduce(z_new[:dim])
            clamp, guard_hit = low < 0.0, low < -atol
            if guard_hit:
                err = max(err, 2.0)

        # the grid points strictly inside a step that passed come from the
        # continuous extension, whose three stages run only then
        j = grid_idx
        if err <= 1.0 and grid is not None:
            j = int(grid.searchsorted(s_new))
            if j > grid_idx:
                stage, block = 12, None
                try:
                    for stage, (node, a_row) in enumerate(_DENSE_STAGES, 13):
                        k[stage] = rate(s + node * h_step, z + h_step * (a_row @ k[:stage]))
                    block = _dense_output(z, z_new, h_step, k, (grid[grid_idx:j] - s) / h_step)
                except (ValueError, FloatingPointError, OverflowError):
                    pass
                n_evals += stage - 12
                if block is None or not _all_finite(block):
                    err = math.nan

        if not math.isfinite(err):
            n_rej_nonfinite += 1
            h = max(0.1 * h_step, 0.5 * h_min)
            continue
        if err > 1.0:
            if guard_hit:
                n_rej_guard += 1
            else:
                n_rej_error += 1
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**-_EXPONENT)
            continue

        # accepted: the block was filled from this step's stage rates before
        # k[0] moves on; a strictly increasing grid holds at most one point
        # at s_new itself
        if j > grid_idx:
            if nonneg_guard:
                x = block[:, :dim]
                x[x < 0.0] = 0.0
            ss.extend(grid[grid_idx:j].tolist())
            zs.append(block)
        on_grid = grid is not None and j < grid.size and grid[j] == s_new
        grid_idx = j + 1 if on_grid else j

        s, z = s_new, z_new
        n_accepted += 1
        h_lo = min(h_lo, h_step)
        h_hi = max(h_hi, h_step)
        h_last = h_step
        if clamp:
            n_clamped += 1
            x = z[:dim]
            x[x < 0.0] = 0.0
            k[0] = rate(s, z)
            n_evals += 1
        else:
            k[0] = k[12]

        if stop_when is not None and stop_when(s, z):
            stopped = True
        if grid is None or on_grid or stopped or s >= s_end:
            ss.append(s)
            zs.append(z[None])
        if stopped:
            break

        # err <= 1 here, so the factor is at least _SAFETY; the floor keeps
        # an exact zero error from dividing by zero
        h = h_step * min(_MAX_FACTOR, _SAFETY * max(err, 1e-10) ** -_EXPONENT)

    zs_arr = np.concatenate(zs)
    aux = {name: zs_arr[:, dim + i] for i, name in enumerate(aux_names)}
    stats = IntegrationStats(
        accepted=n_accepted,
        rejected_error=n_rej_error,
        rejected_guard=n_rej_guard,
        rejected_nonfinite=n_rej_nonfinite,
        clamped=n_clamped,
        rhs_evals=n_evals,
        h_min=float(h_lo),
        h_max=float(h_hi),
    )
    return Trajectory(
        chart="s",
        abscissae=np.asarray(ss),
        states=zs_arr[:, :dim],
        aux=aux,
        settings=settings,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Chart-specific drivers
# ---------------------------------------------------------------------------


def density_start(c0) -> np.ndarray:
    """c0 as a float vector, once the time charts accept it: 1-D, nonempty, finite, >= 0."""
    c0 = core._as_vector(c0, "c0")
    if (c0 < 0).any():
        raise ValueError("initial densities must be nonnegative")
    return c0


def _density_run(chart: str, c0, t_end, settings, points_per_decade) -> Trajectory:
    """Both time charts are this one run of u = (1 + t) c in s = log(1 + t),
    where du/ds = u + field(u), from s = 0 to the end of the chart's sample
    grid (sample_grid).  By the long-time law c_j ~ A_j / (t (log t)^(j-1)),
    u stays O(1), so error control keeps its relative meaning as c decays.

    The run is sampled on the grid and reported at the grid's t or, when
    points_per_decade is 0, at every accepted step, reported at t = e^s - 1
    and the last at the grid's end.  States are reported as c = e^-s u in
    chart "t", and a failure names s.  density_start checks c0, and
    sample_grid t_end and points_per_decade.
    """
    c0 = density_start(c0)
    s_grid, t_grid = sample_grid(chart, t_end, points_per_decade)
    run = integrate_adaptive(
        _density_rate(c0.size),
        np.concatenate([c0, np.zeros(len(_DENSITY_AUX))]),
        (0.0, s_grid[-1]),
        settings,
        grid=s_grid if points_per_decade > 0 else None,
        aux_names=_DENSITY_AUX,
        nonneg_guard=True,
    )
    s = run.abscissae
    t = t_grid if points_per_decade > 0 else np.append(np.expm1(s[:-1]), t_grid[-1])
    return replace(run, chart="t", abscissae=t, states=np.exp(-s)[:, None] * run.states)


def integrate_rbk(
    c0,
    t_end: float,
    settings: IntegratorSettings | None = None,
    *,
    points_per_decade: int = 64,
) -> Trajectory:
    """t-chart run of the RBK system over [0, t_end], sampled on a geometric
    grid over the trailing six decades of t (see _density_run)."""
    return _density_run("t", c0, t_end, settings, points_per_decade)


def integrate_logtime(
    c0,
    t_end: float,
    settings: IntegratorSettings | None = None,
    *,
    points_per_decade: int = 64,
) -> Trajectory:
    """Long-time run of the RBK system over [0, t_end], sampled uniformly in
    s = log(1 + t) (see _density_run)."""
    return _density_run("log-t", c0, t_end, settings, points_per_decade)


# rows of the phi chart's sample grid per decade of phi_1 near blowup: enough
# for the fits over the top two decades (asymptotics.blowup_diagnostic)
_PHI_ROWS_PER_DECADE = 4


def phi_start(c0, cap: float) -> np.ndarray:
    """phi0 = c0[:-1]/c_N, once the phi chart accepts c0 and cap: c0 a 1-D
    vector (refused by its shape as density_start refuses it), N = len(c0) in
    3..MAX_LAW_DIMENSION (core.law_dimension), c_N finite and positive, phi0
    finite (the ratio may overflow) and strictly positive, and cap finite and
    above phi_1(0)."""
    c0 = np.asarray(c0, dtype=float)
    if c0.ndim != 1 or c0.size < 1:
        core._as_vector(c0, "c0")  # raises the shape error
    law_dimension(c0.size, 3)
    if not 0 < c0[-1] < math.inf:
        raise ValueError(f"the phi chart needs a finite c_N > 0, got c_N = {c0[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        phi0 = c0[:-1] / c0[-1]
    if not np.isfinite(phi0).all():
        raise ValueError("phi0 must have finite entries (phi0 = c0[:-1]/c_N)")
    if np.any(phi0 <= 0):
        raise ValueError("the phi chart needs strictly positive initial densities")
    if not (math.isfinite(cap) and cap > phi0[0]):
        raise ValueError(f"cap {cap} must exceed phi_1(0) = {phi0[0]} and be finite")
    return phi0


def integrate_phi_to_blowup(
    c0,
    cap: float = 1e10,
    settings: IntegratorSettings | None = None,
) -> tuple[Trajectory, float, float]:
    """Run the phi chart of c0 past phi_1 = cap and find its blowup point omega.

    The run is made in the twice-rescaled chart psi_j(tau) = phi_j(y(tau)),
    tau = int phi_1 dy, over s = log(1 + tau).  Its states are w_j = log psi_j
    for j = 1..N-2 and the accumulator y:

        dw_j/ds = (1 + tau) F_j(psi) / (psi_1 psi_j),   dy/ds = (1 + tau) / psi_1,

    with F = core.phi_field.  psi_{N-1} has rate 1 in tau, so it is
    tau + phi_{N-1}(0) exactly and is not integrated.  Near blowup
    psi_j ~ tau^(N-j)/(N-j)!, so w is asymptotically linear in s and the
    pair's steps grow.  The run is sampled on a grid uniform in s with
    _PHI_ROWS_PER_DECADE rows per decade of phi_1 ~ tau^(N-1)/(N-1)!, up to
    just past s_cap = log(1 + ((N-1)! cap)^(1/(N-1))), where
    psi_1 >= tau^(N-1)/(N-1)! has reached the cap.

    Since psi_j >= tau^(N-j)/(N-j)!, the tail omega - y = int dtau/psi_1 past
    tau is at most (N-1)!/(N-2) tau^(2-N).  The run stops once psi_1 >= cap
    and that bound is below eps*y; omega is y plus the bound, and its
    uncertainty rtol*omega plus the bound.

    Returns (traj, omega, uncertainty).  The trajectory is reported in chart
    "y", up to the first sample with phi_1 >= cap: abscissae y, states phi
    (its first row phi0 = phi_start(c0, cap)) and the tau accumulator.  It
    carries the run's IntegrationStats, and a failure names s.  Across those
    rows the integrated log psi_j must not decrease and y must increase
    strictly, so a run whose y reaches omega to double precision before
    phi_1 reaches the cap fails.
    """
    phi0 = phi_start(c0, cap)

    n = phi0.size + 1
    dim = n - 2
    last0 = float(phi0[-1])
    tail_factor = math.factorial(n - 1) / (n - 2)
    eps = float(np.finfo(float).eps)
    ds = math.log(10.0) / ((n - 1) * _PHI_ROWS_PER_DECADE)
    # in logs, so that no cap overflows ((N-1)! cap)
    s_cap = math.log1p(math.exp((math.lgamma(n) + math.log(cap)) / (n - 1)))
    grid = ds * np.arange(1, int(s_cap / ds) + 2)

    def rate(s, z):
        tau = math.expm1(s)
        # z is (w, y): slot dim of its exponential becomes psi_{N-1}
        psi = np.exp(z)
        psi[dim] = tau + last0
        # core.phi_field is looked up at call time, like rbk_field in
        # _density_rate.  It runs before the divisions: a trial stage that
        # drives some exp(w_j) to 0 makes it raise ValueError, which rejects
        # the stage, so psi_1 = 0 is never divided by
        f = core.phi_field(psi)
        g = (1.0 + tau) / psi[0]
        # slot dim of g f / psi is overwritten by the rate of y
        out = g * f
        out /= psi
        out[dim] = g
        return out

    def converged(s, z):
        # np.exp as for the reported phi, so the last row is past the cap;
        # the tail bound is compared without dividing by a small tau
        return np.exp(z[0]) >= cap and tail_factor < eps * z[dim] * math.expm1(s) ** (n - 2)

    try:
        run = integrate_adaptive(
            rate,
            np.append(np.log(phi0[:dim]), 0.0),
            (0.0, np.inf),
            settings,
            grid=grid,
            aux_names=("y",),
            nonneg_guard=False,
            stop_when=converged,
        )
    except IntegrationError as exc:
        raise IntegrationError(
            f"cap not reached, or the tail bound not below eps*y: {exc}"
        ) from exc

    y = run.aux["y"]
    tau = np.expm1(run.abscissae)
    phi = np.column_stack([np.exp(run.states), tau + last0])
    phi[0] = phi0
    rows = int(np.argmax(phi[:, 0] >= cap)) + 1
    if np.any(np.diff(run.states[:rows], axis=0) < 0):
        raise IntegrationError("log psi components decreased before phi_1 reached the cap")
    if np.any(np.diff(y[:rows]) <= 0):
        raise IntegrationError(
            f"y stopped increasing before phi_1 reached the cap {cap:g}: omega - y fell "
            "below y's double-precision resolution; lower the cap"
        )
    traj = Trajectory(
        chart="y",
        abscissae=y[:rows],
        states=phi[:rows],
        aux={"tau": tau[:rows]},
        settings=run.settings,
        stats=run.stats,
    )

    tail = tail_factor * float(tau[-1]) ** (2 - n)
    omega = float(y[-1]) + tail
    return traj, omega, run.settings.rtol * omega + tail
