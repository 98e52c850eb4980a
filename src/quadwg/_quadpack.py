"""QUADPACK's adaptive Gauss-Kronrod integrators, ported to Python.

``quad`` integrates with ``dqagse`` on a finite interval, ``dqagpe`` when
break points are given and ``dqagie`` on a half or the whole line, as
``scipy.integrate.quad`` does (R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK*, Springer 1983).  The
routines, with ``dqk21``, ``dqk15i``, ``dqpsrt`` and ``dqelg``, follow the
Fortran line for line: the same operations in the same order on the same
floats, so that a value and its error estimate have the bits the compiled
routines give.  Arrays are indexed from 1, as in the Fortran, and each
``go to`` becomes a branch, a ``break`` or a ``continue``; a comparison
that decides a jump is kept as written, so nan takes the same branches.
``dqagse`` and ``dqagpe`` share three steps, written once on
``_Partition``: the bisection step, the search for a larger interval to
bisect before extrapolating, and the finish.  Each routine keeps its
start, its test of a large interval and its extrapolation.

The integrand is the one part that differs.  Each routine is a generator:
it yields the intervals of its next rule application (every starting
interval, then both halves of each bisected interval) and is sent their
``(result, abserr, resabs, resasc)``; it returns ``(result, abserr,
ier)``.  ``quad`` runs one generator: it calls ``f`` on the float64 array
of the rule's nodes, each interval's nodes in the order QUADPACK evaluates
them, and applies ``dqk21`` or ``dqk15i`` in Python floats.

``_lockstep`` runs many integrals, set up by ``quad(..., defer=True)``,
one rule application of each per round.  A round places the nodes of all
pending intervals, calls the integrand of each job once on the nodes of
its unfinished integrals, and applies each rule to all the round's
intervals at once: on numpy arrays, one row per interval, from
``_ARRAY_MIN`` intervals on, else in Python.  The array rules do the
Python rules' operations in their order, so each integral keeps the steps
and the bits of its own ``quad``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import IntegrationWarning, warn

__all__ = ["quad"]

_EPMACH = sys.float_info.epsilon      # d1mach(4)
_UFLOW = sys.float_info.min           # d1mach(1)
_OFLOW = sys.float_info.max           # d1mach(2)
# dqk21 and dqk15i raise a nonzero error estimate to 50 eps resabs above this.
_RESABS_FLOOR = _UFLOW / (0.5e+02 * _EPMACH)

# dqk21: the 21-point Kronrod abscissae, xgk(2), xgk(4), ... being the
# 10-point Gauss abscissae, with their weights, in QUADPACK's own digits.
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077282977565906, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
# dqk15i: the 15-point Kronrod rule, whose odd abscissae are the 7-point
# Gauss rule's, on the transformed interval.
_XGK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000)
_WGK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG7 = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327)

# dqk21's abscissae and weights by name, 0-based: _X1 is xgk(2), the
# first Gauss abscissa, and _G1 its Gauss weight wg(1).  Its loops over
# them are unrolled below, in their order.
_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9, _ = _XGK21
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7, _K8, _K9, _K10 = _WGK21
_G1, _G3, _G5, _G7, _G9 = _WG10

# scipy.integrate.quad's message for each error code QUADPACK returns.
_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
       "If increasing the limit yields no improvement it is advised to "
       "analyze \n  the integrand in order to determine the difficulties.  "
       "If the position of a \n  local difficulty can be determined "
       "(singularity, discontinuity) one will \n  probably gain from "
       "splitting up the interval and calling the integrator \n  on the "
       "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
       "the requested tolerance from being achieved.  "
       "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
       "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
       "in the extrapolation table.  It is assumed that the requested "
       "tolerance\n  cannot be achieved, and that the returned result "
       "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


def _fmax(x: float, y: float) -> float:
    """C's ``fmax``: the larger of ``x`` and ``y``, or the one that is not
    nan."""
    return x if x >= y or y != y else y


def _divide(x: float, y: float) -> float:
    """``x / y`` in IEEE arithmetic, where Python raises on a zero ``y``."""
    try:
        return x / y
    except ZeroDivisionError:
        if x != x or x == 0.0:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _error(resk: float, resg: float, hlgth: float, resabs: float,
           resasc: float) -> float:
    """The error estimate that closes ``dqk21`` and ``dqk15i``."""
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r ** 1.5) without the OverflowError Python raises for a
        # finite r whose power overflows; nan gives 1, as C's fmin does.
        ratio = 0.2e+03 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _RESABS_FLOOR:
        abserr = _fmax((_EPMACH * 0.5e+02) * resabs, abserr)
    return abserr


def _nodes21(intervals: Sequence[tuple[float, float]]) -> list[float]:
    """The nodes of ``dqk21`` on each of ``intervals``, in the order it
    evaluates them: the centre, both nodes of each Gauss abscissa, then
    both of each other Kronrod abscissa."""
    x = []
    for a, b in intervals:
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        d1, d3, d5, d7, d9 = h * _X1, h * _X3, h * _X5, h * _X7, h * _X9
        d0, d2, d4, d6, d8 = h * _X0, h * _X2, h * _X4, h * _X6, h * _X8
        x += (c, c - d1, c + d1, c - d3, c + d3, c - d5, c + d5, c - d7,
              c + d7, c - d9, c + d9, c - d0, c + d0, c - d2, c + d2,
              c - d4, c + d4, c - d6, c + d6, c - d8, c + d8)
    return x


def _qk21(fv: list[float], intervals) -> list[tuple]:
    """``dqk21`` on each of ``intervals`` from its 21 values in ``fv``,
    ordered as ``_nodes21`` orders the nodes: ``(result, abserr, resabs,
    resasc)`` per interval.  ``mj`` and ``pj`` are the values at ``c - h
    xj`` and ``c + h xj``."""
    out = []
    at = 0
    for a, b in intervals:
        (fc, m1, p1, m3, p3, m5, p5, m7, p7, m9, p9,
         m0, p0, m2, p2, m4, p4, m6, p6, m8, p8) = fv[at:at + 21]
        at += 21
        hlgth = 0.5 * (b - a)
        dhlgth = abs(hlgth)
        # The 21-point Kronrod approximation, with the 10-point Gauss one
        # on the way.
        resg = 0.0
        resk = _K10 * fc
        resabs = abs(resk)
        fsum = m1 + p1
        resg = resg + _G1 * fsum
        resk = resk + _K1 * fsum
        resabs = resabs + _K1 * (abs(m1) + abs(p1))
        fsum = m3 + p3
        resg = resg + _G3 * fsum
        resk = resk + _K3 * fsum
        resabs = resabs + _K3 * (abs(m3) + abs(p3))
        fsum = m5 + p5
        resg = resg + _G5 * fsum
        resk = resk + _K5 * fsum
        resabs = resabs + _K5 * (abs(m5) + abs(p5))
        fsum = m7 + p7
        resg = resg + _G7 * fsum
        resk = resk + _K7 * fsum
        resabs = resabs + _K7 * (abs(m7) + abs(p7))
        fsum = m9 + p9
        resg = resg + _G9 * fsum
        resk = resk + _K9 * fsum
        resabs = resabs + _K9 * (abs(m9) + abs(p9))
        fsum = m0 + p0
        resk = resk + _K0 * fsum
        resabs = resabs + _K0 * (abs(m0) + abs(p0))
        fsum = m2 + p2
        resk = resk + _K2 * fsum
        resabs = resabs + _K2 * (abs(m2) + abs(p2))
        fsum = m4 + p4
        resk = resk + _K4 * fsum
        resabs = resabs + _K4 * (abs(m4) + abs(p4))
        fsum = m6 + p6
        resk = resk + _K6 * fsum
        resabs = resabs + _K6 * (abs(m6) + abs(p6))
        fsum = m8 + p8
        resk = resk + _K8 * fsum
        resabs = resabs + _K8 * (abs(m8) + abs(p8))
        reskh = resk * 0.5
        resasc = _K10 * abs(fc - reskh)
        resasc = resasc + _K0 * (abs(m0 - reskh) + abs(p0 - reskh))
        resasc = resasc + _K1 * (abs(m1 - reskh) + abs(p1 - reskh))
        resasc = resasc + _K2 * (abs(m2 - reskh) + abs(p2 - reskh))
        resasc = resasc + _K3 * (abs(m3 - reskh) + abs(p3 - reskh))
        resasc = resasc + _K4 * (abs(m4 - reskh) + abs(p4 - reskh))
        resasc = resasc + _K5 * (abs(m5 - reskh) + abs(p5 - reskh))
        resasc = resasc + _K6 * (abs(m6 - reskh) + abs(p6 - reskh))
        resasc = resasc + _K7 * (abs(m7 - reskh) + abs(p7 - reskh))
        resasc = resasc + _K8 * (abs(m8 - reskh) + abs(p8 - reskh))
        resasc = resasc + _K9 * (abs(m9 - reskh) + abs(p9 - reskh))
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        out.append((result, _error(resk, resg, hlgth, resabs, resasc),
                    resabs, resasc))
    return out


def _nodes15i(boun: float, inf: int, intervals) -> list[float]:
    """The nodes of ``dqk15i`` on each of ``intervals`` of ``t`` in
    ``(0, 1]``, mapped to ``boun + dinf (1 - t) / t``, in the order it
    evaluates them; on the whole line (``inf = 2``) each is followed by its
    mirror image."""
    dinf = float(min(1, inf))
    x = []
    for a, b in intervals:
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        tabsc1 = boun + dinf * (0.1e+01 - centr) / centr
        x.append(tabsc1)
        if inf == 2:
            x.append(-tabsc1)
        for j in range(7):
            absc = hlgth * _XGK15[j]
            absc1 = centr - absc
            absc2 = centr + absc
            tabsc1 = boun + dinf * (0.1e+01 - absc1) / absc1
            tabsc2 = boun + dinf * (0.1e+01 - absc2) / absc2
            x.append(tabsc1)
            x.append(tabsc2)
            if inf == 2:
                x.append(-tabsc1)
                x.append(-tabsc2)
    return x


def _qk15i(inf: int, fv: list[float], intervals) -> list[tuple]:
    """``dqk15i`` on each of ``intervals`` of ``t`` from its values in
    ``fv``, ordered as ``_nodes15i`` orders the nodes."""
    both = inf == 2
    out = []
    at = 0
    for a, b in intervals:
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        fval1 = fv[at]
        at += 1
        if both:
            fval1 = fval1 + fv[at]
            at += 1
        fc = (fval1 / centr) / centr
        resg = _WG7[7] * fc
        resk = _WGK15[7] * fc
        resabs = abs(resk)
        fv1, fv2 = [], []
        for j in range(7):
            absc = hlgth * _XGK15[j]
            absc1 = centr - absc
            absc2 = centr + absc
            fval1, fval2 = fv[at], fv[at + 1]
            at += 2
            if both:
                fval1 = fval1 + fv[at]
                fval2 = fval2 + fv[at + 1]
                at += 2
            fval1 = (fval1 / absc1) / absc1
            fval2 = (fval2 / absc2) / absc2
            fv1.append(fval1)
            fv2.append(fval2)
            fsum = fval1 + fval2
            resg = resg + _WG7[j] * fsum
            resk = resk + _WGK15[j] * fsum
            resabs = resabs + _WGK15[j] * (abs(fval1) + abs(fval2))
        reskh = resk * 0.5
        resasc = _WGK15[7] * abs(fc - reskh)
        for j in range(7):
            resasc = resasc + _WGK15[j] * (abs(fv1[j] - reskh)
                                           + abs(fv2[j] - reskh))
        result = resk * hlgth
        resasc = resasc * hlgth
        resabs = resabs * hlgth
        out.append((result, _error(resk, resg, hlgth, resabs, resasc),
                    resabs, resasc))
    return out


# The rules on arrays of intervals, one row per interval: the same
# operations in the same order as ``_qk21`` and ``_qk15i``, on columns.
# Elementwise IEEE arithmetic gives each row the bits of the Python rule;
# ``add.accumulate`` adds the terms of a row one after another, in
# QUADPACK's order, where ``sum`` would add them pairwise.
# ``float_power`` is libm ``pow``, as Python's ``**`` is, where numpy's
# ``**`` rounds some powers 1.5 differently.  Below ``_ARRAY_MIN``
# intervals a round, numpy's fixed cost exceeds the Python rule's.
_ARRAY_MIN = 32
# dqk21's abscissae in the order ``_nodes21`` places their pairs of nodes,
# which is the order dqk21 sums them in, and the pairs' Kronrod and Gauss
# weights.
_PAIRS21 = np.array([_X1, _X3, _X5, _X7, _X9, _X0, _X2, _X4, _X6, _X8])
_KRONROD21 = np.array([_K1, _K3, _K5, _K7, _K9, _K0, _K2, _K4, _K6, _K8])
_GAUSS21 = np.array([_G1, _G3, _G5, _G7, _G9])
# The pairs in the order dqk21 sums resasc.
_ASC21 = [5, 0, 6, 1, 7, 2, 8, 3, 9, 4]
_XGK15_7 = np.array(_XGK15[:7])
_WGK15_7 = np.array(_WGK15[:7])
_WG7_7 = np.array(_WG7[:7])


def _running(first, terms) -> np.ndarray:
    """``first + terms[:, 0] + terms[:, 1] + ...`` row by row, added in
    that order."""
    row = np.empty((terms.shape[0], terms.shape[1] + 1))
    row[:, 0] = first
    row[:, 1:] = terms
    return np.add.accumulate(row, axis=1)[:, -1]


def _error_array(resk, resg, hlgth, resabs, resasc):
    """``_error`` on arrays."""
    abserr = np.abs((resk - resg) * hlgth)
    ratio = 0.2e+03 * abserr / resasc
    scaled = resasc * np.where(ratio < 1.0, np.float_power(ratio, 1.5), 1.0)
    abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
    return np.where(resabs > _RESABS_FLOOR,
                    np.fmax((_EPMACH * 0.5e+02) * resabs, abserr), abserr)


def _nodes21_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_nodes21`` on arrays of bounds: row ``i`` holds the 21 nodes of
    ``[a[i], b[i]]``."""
    c = 0.5 * (a + b)
    d = (0.5 * (b - a))[:, None] * _PAIRS21
    x = np.empty((a.size, 21))
    x[:, 0] = c
    x[:, 1::2] = c[:, None] - d
    x[:, 2::2] = c[:, None] + d
    return x


def _qk21_array(fv: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """``_qk21`` on rows: ``fv[i]`` holds the values at the nodes of
    ``[a[i], b[i]]``; returns the arrays ``(result, abserr, resabs,
    resasc)``."""
    hlgth = 0.5 * (b - a)
    dhlgth = np.abs(hlgth)
    fc = fv[:, 0]
    m, p = fv[:, 1::2], fv[:, 2::2]
    fsum = m + p
    resk0 = _K10 * fc
    resg = _running(0.0, _GAUSS21 * fsum[:, :5])
    resk = _running(resk0, _KRONROD21 * fsum)
    resabs = _running(np.abs(resk0), _KRONROD21 * (np.abs(m) + np.abs(p)))
    reskh = resk * 0.5
    spread = _KRONROD21 * (np.abs(m - reskh[:, None])
                           + np.abs(p - reskh[:, None]))
    resasc = _running(_K10 * np.abs(fc - reskh), spread[:, _ASC21])
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    return (resk * hlgth, _error_array(resk, resg, hlgth, resabs, resasc),
            resabs, resasc)


def _nodes15i_array(boun: np.ndarray, dinf: np.ndarray, both: bool,
                    a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_nodes15i`` on arrays: row ``i`` holds the nodes of ``[a[i],
    b[i]]`` mapped by ``boun[i]`` and ``dinf[i]``, each followed by its
    mirror image if ``both``."""
    centr = 0.5 * (a + b)
    absc = (0.5 * (b - a))[:, None] * _XGK15_7
    t = np.empty((a.size, 15))
    t[:, 0] = centr
    t[:, 1::2] = centr[:, None] - absc
    t[:, 2::2] = centr[:, None] + absc
    x = boun[:, None] + dinf[:, None] * (0.1e+01 - t) / t
    if not both:
        return x
    pairs = x[:, 1:].reshape(a.size, 7, 2)
    return np.concatenate([x[:, :1], -x[:, :1],
                           np.concatenate([pairs, -pairs], axis=2)
                           .reshape(a.size, 28)], axis=1)


def _qk15i_array(fv: np.ndarray, both: bool, a: np.ndarray,
                 b: np.ndarray) -> tuple:
    """``_qk15i`` on rows, as ``_qk21_array`` is ``_qk21``."""
    if both:
        quads = fv[:, 2:].reshape(a.size, 7, 4)
        fval0 = fv[:, 0] + fv[:, 1]
        fval1 = quads[:, :, 0] + quads[:, :, 2]
        fval2 = quads[:, :, 1] + quads[:, :, 3]
    else:
        fval0, fval1, fval2 = fv[:, 0], fv[:, 1::2], fv[:, 2::2]
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK15_7
    absc1 = centr[:, None] - absc
    absc2 = centr[:, None] + absc
    fc = (fval0 / centr) / centr
    fv1 = (fval1 / absc1) / absc1
    fv2 = (fval2 / absc2) / absc2
    fsum = fv1 + fv2
    resk0 = _WGK15[7] * fc
    resg = _running(_WG7[7] * fc, _WG7_7 * fsum)
    resk = _running(resk0, _WGK15_7 * fsum)
    resabs = _running(np.abs(resk0), _WGK15_7 * (np.abs(fv1) + np.abs(fv2)))
    reskh = resk * 0.5
    resasc = _running(_WGK15[7] * np.abs(fc - reskh),
                      _WGK15_7 * (np.abs(fv1 - reskh[:, None])
                                  + np.abs(fv2 - reskh[:, None])))
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    return (resk * hlgth, _error_array(resk, resg, hlgth, resabs, resasc),
            resabs, resasc)


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """``dqpsrt``: keep ``iord`` ordering the error estimates ``elist``
    descending; returns ``(maxerr, ermax, nrmax)``."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax = nrmax - 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # Insert errmin by traversing the list bottom-up.
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k = k - 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list,
          nres: int) -> tuple[int, float, float, int]:
    """``dqelg``, the epsilon algorithm on the ``n`` entries of ``epstab``;
    returns ``(n, result, abserr, nres)``."""
    nres = nres + 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = _fmax(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = _fmax(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged.
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = _fmax(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 0.1e+01 / delta1 + 0.1e+01 / delta2 - 0.1e+01 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 0.1e-03:
                n = i + i - 1
                break
            res = e1 + 0.1e+01 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            # Shift the table.
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if (num // 2) * 2 == num else 1
            for _ in range(newelm + 1):
                ib2 = ib + 2
                epstab[ib] = epstab[ib2]
                ib = ib2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx = indx + 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = _fmax(abserr, 0.5e+01 * _EPMACH * abs(result))
    return n, result, abserr, nres


def _final(ier: int, ierro: int, result: float, abserr: float, area: float,
           errsum: float, correc: float, ksgn: int,
           defabs: float) -> tuple[bool, int, float]:
    """Labels 100 to 110 of ``dqagse`` (170 to 180 of ``dqagpe``): whether
    to sum the partition instead, the error code and the error estimate."""
    if abserr == _OFLOW:
        return True, ier, abserr
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return True, ier, abserr
        elif abserr > errsum:
            return True, ier, abserr
        elif area == 0.0:
            return False, ier, abserr
    # Test on divergence.
    if ksgn == -1 and _fmax(abs(result), abs(area)) <= defabs * 0.1e-01:
        return False, ier, abserr
    ratio = _divide(result, area)
    if 0.1e-01 > ratio or ratio > 0.1e+03 or errsum > abs(area):
        ier = 6
    return False, ier, abserr


class _Partition:
    """The partition of the range that ``dqagse`` and ``dqagpe`` bisect,
    with the steps they share: the bisection, the search for a larger
    interval and the finish.

    The lists are indexed from 1.  Interval ``i`` is ``[alist[i],
    blist[i]]``, bisected ``level[i]`` times, with the result ``rlist[i]``
    and the error estimate ``elist[i]``; ``iord`` orders the intervals by
    descending error, and ``maxerr = iord[nrmax]``, of error ``errmax``,
    is bisected next.  ``area`` and ``errsum`` are the sums of the results
    and of the errors, ``last`` the number of intervals, ``iroff1`` to
    ``iroff3`` the roundoff counts and ``ier`` and ``ierro`` the error
    flags.  A routine calls ``start`` before it bisects.
    """

    def __init__(self, limit: int, epsabs: float, epsrel: float,
                 intervals: list, estimates: list) -> None:
        self.limit = limit
        self.epsabs = epsabs
        self.epsrel = epsrel
        self.last = len(intervals)
        self.alist = [0.0, *(a for a, _ in intervals)]
        self.blist = [0.0, *(b for _, b in intervals)]
        self.rlist = [0.0, *(r for r, *_ in estimates)]
        self.elist = [0.0, *(e for _, e, *_ in estimates)]
        self.iord = list(range(self.last + 1))
        self.level = [0] * (self.last + 1)
        self.ier = self.ierro = 0
        self.iroff1 = self.iroff2 = self.iroff3 = 0

    def start(self, area: float, errsum: float) -> None:
        """Set the sums of the results and of the errors and select the
        interval of largest error."""
        self.area = area
        self.errsum = errsum
        self.select()

    def select(self) -> None:
        """Make the interval with the largest error estimate the next to
        bisect."""
        self.nrmax = 1
        self.maxerr = self.iord[1]
        self.errmax = self.elist[self.maxerr]

    def bisect(self, extrap: bool) -> Generator:
        """Bisect interval ``maxerr`` into itself and a new interval
        ``last``, and select the next interval to bisect; ``extrap`` tells
        which roundoff count to raise.  Yields the two halves and receives
        their rule estimates; returns the new error bound ``errbnd``, the
        error ``erro12`` of the two halves and the length ``b1 - a1`` of
        the lower half."""
        alist, blist, rlist, elist, level = \
            self.alist, self.blist, self.rlist, self.elist, self.level
        maxerr, errmax = self.maxerr, self.errmax
        self.last = last = self.last + 1
        alist.append(0.0)
        blist.append(0.0)
        rlist.append(0.0)
        elist.append(0.0)
        self.iord.append(0)
        level.append(0)
        # Bisect the subinterval with the nrmax-th largest error estimate.
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        (area1, error1, _, defab1), (area2, error2, _, defab2) = \
            yield [(a1, b1), (a2, b2)]
        # Improve previous approximations to integral and error and test
        # for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        self.errsum = self.errsum + erro12 - errmax
        self.area = self.area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-04 * abs(area12)
                    or erro12 < 0.99e+00 * errmax):
                if extrap:
                    self.iroff2 = self.iroff2 + 1
                if not extrap:
                    self.iroff1 = self.iroff1 + 1
            if last > 10 and erro12 > errmax:
                self.iroff3 = self.iroff3 + 1
        level[maxerr] = levcur
        level[last] = levcur
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = _fmax(self.epsabs, self.epsrel * abs(self.area))
        # Test for roundoff error and eventually set error flag.
        if self.iroff1 + self.iroff2 >= 10 or self.iroff3 >= 20:
            self.ier = 2
        if self.iroff2 >= 5:
            self.ierro = 3
        if last == self.limit:
            self.ier = 1
        # Bad integrand behaviour at a point of the integration range.
        if _fmax(abs(a1), abs(b2)) <= (0.1e+01 + 0.1e+03 * _EPMACH) \
                * (abs(a2) + 0.1e+04 * _UFLOW):
            self.ier = 4
        # Append the newly-created intervals to the list.
        if not error2 > error1:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        else:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        self.maxerr, self.errmax, self.nrmax = _qpsrt(
            self.limit, last, maxerr, elist, self.iord, self.nrmax)
        return errbnd, erro12, b1 - a1

    def larger(self, large: Callable[[int], bool]) -> bool:
        """Whether an interval from the ``nrmax``-th largest error estimate
        on is ``large``; the first such is selected.  With none to search,
        the selection stays as it was."""
        jupbnd = self.last
        if self.last > 2 + self.limit // 2:
            jupbnd = self.limit + 3 - self.last
        for _ in range(self.nrmax, jupbnd + 1):
            self.maxerr = self.iord[self.nrmax]
            self.errmax = self.elist[self.maxerr]
            if large(self.maxerr):
                return True
            self.nrmax = self.nrmax + 1
        return False

    def finish(self, summed: bool, result: float, abserr: float,
               correc: float, dres: float,
               defabs: float) -> tuple[float, float, int]:
        """From label 100 of ``dqagse`` (170 of ``dqagpe``) on: the sum of
        the partition if the bisection ``summed`` it or the extrapolated
        ``result`` and ``abserr`` are no better, else these; returns
        ``(result, abserr, ier)``."""
        ier = self.ier
        if not summed:
            ksgn = -1
            if dres >= (0.1e+01 - 0.5e+02 * _EPMACH) * defabs:
                ksgn = 1
            summed, ier, abserr = _final(ier, self.ierro, result, abserr,
                                         self.area, self.errsum, correc,
                                         ksgn, defabs)
        if summed:
            result = 0.0
            for k in range(1, self.last + 1):
                result = result + self.rlist[k]
            abserr = self.errsum
        if ier > 2:
            ier = ier - 1
        return result, abserr, ier


def _qagse(a: float, b: float, epsabs: float, epsrel: float,
           limit: int) -> Generator:
    """``dqagse`` over ``[a, b]``, its rule ``dqk21``; ``dqagie`` is the
    same routine over ``t`` in ``(0, 1]``, its rule ``dqk15i``.  Yields
    the intervals of each rule application and receives their estimates;
    returns ``(result, abserr, ier)``."""
    ier = 0
    estimates = yield [(a, b)]
    ((result, abserr, defabs, resabs),) = estimates
    # Test on accuracy.
    dres = abs(result)
    errbnd = _fmax(epsabs, epsrel * dres)
    if abserr <= 1.0e+02 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier
    # Initialization.
    part = _Partition(limit, epsabs, epsrel, [(a, b)], estimates)
    part.start(result, abserr)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    abserr = _OFLOW
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    small = erlarg = ertest = correc = 0.0
    summed = False

    def large(i: int) -> bool:
        return abs(part.blist[i] - part.alist[i]) > small

    while part.last < limit:
        erlast = part.errmax
        errbnd, erro12, length = yield from part.bisect(extrap)
        if part.errsum <= errbnd:
            summed = True
            break
        if part.ier != 0:
            break
        if part.last == 2:
            small = abs(b - a) * 0.375e+00
            erlarg = part.errsum
            ertest = errbnd
            rlist2[2] = part.area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(length) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Is the interval to be bisected next the smallest one?
            if large(part.maxerr):
                continue
            extrap = True
            part.nrmax = 2
        if not (part.ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error.  Before
            # bisecting, decrease the sum of the errors over the larger
            # intervals (erlarg) and perform extrapolation.
            if part.larger(large):
                continue
        # Perform extrapolation.
        numrl2 = numrl2 + 1
        rlist2[numrl2] = part.area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin = ktmin + 1
        if ktmin > 5 and abserr < 0.1e-02 * part.errsum:
            part.ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = _fmax(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # Prepare bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if part.ier == 5:
            break
        part.select()
        extrap = False
        small = small * 0.5e+00
        erlarg = part.errsum
    return part.finish(summed, result, abserr, correc, dres, defabs)


def _qagpe(a: float, b: float, points: list[float], epsabs: float,
           epsrel: float, limit: int) -> Generator:
    """``dqagpe`` over ``[a, b]``, ``a < b``, with the sorted break
    ``points`` strictly inside; its rule is ``dqk21``.  Yields and
    receives as ``_qagse`` does; returns ``(result, abserr, ier)``."""
    ier = 0
    npts2 = len(points) + 2
    npts = npts2 - 2
    pts = [0.0, a, *points, b]
    nint = npts + 1
    starts = list(zip(pts[1:-1], pts[2:]))
    # Compute first integral and error approximations.
    estimates = yield starts
    part = _Partition(limit, epsabs, epsrel, starts, estimates)
    elist, iord = part.elist, part.iord
    ndin = [0]
    abserr = 0.0
    result = 0.0
    resabs = 0.0
    for area1, error1, defabs, resa in estimates:
        abserr = abserr + error1
        result = result + area1
        ndin.append(1 if error1 == resa and error1 != 0.0 else 0)
        resabs = resabs + defabs
    errsum = 0.0
    for i in range(1, nint + 1):
        if ndin[i] == 1:
            elist[i] = abserr
        errsum = errsum + elist[i]
    # Test on accuracy.
    dres = abs(result)
    errbnd = _fmax(epsabs, epsrel * dres)
    if abserr <= 0.1e+03 * _EPMACH * resabs and abserr > errbnd:
        ier = 2
    if nint != 1:
        for i in range(1, npts + 1):
            ind1 = iord[i]
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if elist[ind1] > elist[ind2]:
                    continue
                ind1 = ind2
                k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if limit < npts2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return result, abserr, ier
    # Initialization.
    part.start(result, errsum)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    nres = 0
    numrl2 = 1
    ktmin = 0
    extrap = False
    noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    correc = 0.0
    abserr = _OFLOW
    summed = False

    def large(i: int) -> bool:
        return part.level[i] + 1 <= levmax

    while part.last < limit:
        erlast = part.errmax
        errbnd, erro12, _ = yield from part.bisect(extrap)
        if part.errsum <= errbnd:
            summed = True
            break
        if part.ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if large(part.last):
            erlarg = erlarg + erro12
        if not extrap:
            # Is the interval to be bisected next the smallest one?
            if large(part.maxerr):
                continue
            extrap = True
            part.nrmax = 2
        if not (part.ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error.  Before
            # bisecting, decrease the sum of the errors over the larger
            # intervals (erlarg) and perform extrapolation.
            if part.larger(large):
                continue
        # Perform extrapolation.
        numrl2 = numrl2 + 1
        rlist2[numrl2] = part.area
        if numrl2 > 2:
            numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la,
                                                 nres)
            ktmin = ktmin + 1
            if ktmin > 5 and abserr < 0.1e-02 * part.errsum:
                part.ier = 5
            if not abseps >= abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = _fmax(epsabs, epsrel * abs(reseps))
                if abserr < ertest:
                    break
            # Prepare bisection of the smallest interval.
            if numrl2 == 1:
                noext = True
            if part.ier >= 5:
                break
        part.select()
        extrap = False
        levmax = levmax + 1
        erlarg = part.errsum
    return part.finish(summed, result, abserr, correc, dres, resabs)


def _plan(a: float, b: float,
          points: Sequence[float] | None) -> tuple[int, float, list | None]:
    """How ``quad`` integrates over ``[a, b]``, ``a < b``, as scipy decides:
    ``(inf, boun, breaks)``.  ``inf`` is 0 for ``dqk21`` on the finite
    range; else ``dqk15i`` maps ``t`` in ``(0, 1]`` to ``boun + (1 - t) /
    t`` (``inf = 1``), ``boun - (1 - t) / t`` (``-1``) or both signs of
    ``(1 - t) / t`` (``2``).  ``breaks`` are the sorted distinct break
    points strictly inside, or None for ``dqagse`` and ``dqagie``."""
    if b == math.inf or a == -math.inf:
        if points is not None:
            raise ValueError("Infinity inputs cannot be used with break points.")
        if a == -math.inf and b == math.inf:
            return 2, 0.0, None
        if b == math.inf:
            return 1, a, None
        return -1, b, None
    if points is None:
        return 0, 0.0, None
    return 0, 0.0, sorted({float(p) for p in points if a < p < b})


def _invalid(a: float, b: float, epsabs: float, epsrel: float, limit: int,
             points: Sequence[float] | None, breaks: list | None) -> str | None:
    """scipy's message for arguments QUADPACK refuses (its ``ier = 6``),
    or None."""
    tiny_epsrel = epsrel < max(50 * _EPMACH, 5e-29)
    if not ((epsabs <= 0 and tiny_epsrel)
            or (limit < 1 if breaks is None else limit <= len(breaks))):
        return None
    if epsabs <= 0:
        if tiny_epsrel:
            return ("If 'epsabs'<=0, 'epsrel' must be greater than both"
                    " 5e-29 and 50*(machine epsilon).")
    elif breaks is None:
        return ("Invalid 'limit' argument. There must be"
                " at least one subinterval")
    elif not min(a, b) <= min(points) <= max(points) <= max(a, b):
        return ("All break points in 'points' must lie within the"
                " integration limits.")
    elif len(points) >= limit:
        return (f"Number of break points ({len(points):d}) "
                f"must be less than subinterval limit ({limit:d})")
    return "The input is invalid."


class _Integration:
    """One integral as ``quad`` sets it up: the generator of its routine,
    which ``quad`` runs alone and ``_lockstep`` with others.

    ``inf`` and ``boun`` name its rule as ``_plan`` does, and ``width`` is
    the number of nodes the rule places on an interval.  ``pending`` holds
    the intervals of its next rule application; once the routine has
    returned it is None and ``outcome`` is ``(result, abserr, ier)``.
    """

    __slots__ = ("steps", "inf", "boun", "width", "flip", "limit", "pending",
                 "outcome")

    def __init__(self, a: float, b: float, epsabs: float, epsrel: float,
                 limit: int, points: Sequence[float] | None) -> None:
        self.flip, self.limit, self.pending = b < a, limit, None
        self.steps, self.inf, self.boun, self.width = None, 0, 0.0, 21
        self.outcome = (0.0, 0.0, 0)
        if a == b:
            self.flip = False
            return
        a, b = min(a, b), max(a, b)
        self.inf, self.boun, breaks = _plan(a, b, points)
        message = _invalid(a, b, epsabs, epsrel, limit, points, breaks)
        if message is not None:
            raise ValueError(message)
        if self.inf:
            self.width = 30 if self.inf == 2 else 15
            self.steps = _qagse(0.0, 1.0, epsabs, epsrel, limit)
        elif breaks is None:
            self.steps = _qagse(a, b, epsabs, epsrel, limit)
        else:
            self.steps = _qagpe(a, b, breaks, epsabs, epsrel, limit)

    def advance(self, estimates: list | None = None) -> bool:
        """Send the routine the ``estimates`` of its pending intervals
        (None to start it) and run it to its next rule application;
        whether there is one."""
        if self.steps is None:
            return False
        try:
            self.pending = self.steps.send(estimates)
            return True
        except StopIteration as stop:
            self.steps, self.pending, self.outcome = None, None, stop.value
            return False

    def nodes(self, intervals: list) -> list[float]:
        """The nodes of the rule on ``intervals``, in its order."""
        if self.inf == 0:
            return _nodes21(intervals)
        return _nodes15i(self.boun, self.inf, intervals)

    def rule(self, fv: list[float], intervals: list) -> list[tuple]:
        """The rule's estimates on ``intervals`` from the values ``fv`` at
        their nodes, in Python."""
        if self.inf == 0:
            return _qk21(fv, intervals)
        return _qk15i(self.inf, fv, intervals)

    def result(self) -> tuple[float, float]:
        """``(result, abserr)`` of the finished integral, its error code
        issued as an ``IntegrationWarning``."""
        result, abserr, ier = self.outcome
        if self.flip:
            result = -result
        if ier:
            warn(_MESSAGES[ier].format(limit=self.limit), IntegrationWarning)
        return result, abserr


def quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
         epsabs: float, epsrel: float, limit: int,
         points: Sequence[float] | None = None,
         defer: bool = False) -> tuple[float, float] | _Integration:
    """``Int_a^b f`` and an estimate of its absolute error, as
    ``scipy.integrate.quad`` computes them with the same arguments.

    ``f`` takes a float64 array of nodes and returns its values there, one
    float per node.  ``a == b`` gives ``(0.0, 0.0)``, and ``b < a`` the
    negated integral over ``[b, a]``.  Either bound may be infinite unless
    break ``points`` are given; only the distinct points strictly inside
    ``(a, b)`` are used.  Each error code QUADPACK returns is issued as an
    ``IntegrationWarning`` with scipy's text; arguments it refuses raise
    ``ValueError``.

    With ``defer=True`` nothing is integrated yet: the arguments are
    checked and the integral is returned for ``_lockstep`` to run, which
    evaluates ``f`` through its job's ``values``.
    """
    integral = _Integration(a, b, epsabs, epsrel, limit, points)
    if defer:
        return integral
    ((result,),) = _lockstep([(lambda x: (f(x),), [(0, integral)])])
    return result


def _lockstep(jobs: Sequence[tuple[Callable, Sequence[tuple[int, _Integration]]]]
              ) -> list[list[tuple[float, float]]]:
    """Run the deferred integrals of ``jobs`` together, one rule
    application of each per round.

    A job is ``(values, integrals)``: ``values`` takes a float64 array of
    nodes and returns one array of values per row, and each of
    ``integrals`` is ``(row, integral)``, a ``quad(..., defer=True)`` of
    row ``row`` of ``values``.  Each round places the nodes of the pending
    intervals of every live integral, an interval that several of a job's
    integrals bisect alike once; calls each job's ``values`` once, on the
    nodes of its live integrals; and applies the rules to all pending
    intervals together, on arrays from ``_ARRAY_MIN`` intervals on and in
    Python below.  Every integrand is elementwise: a value depends on its
    own node only, not on the other nodes of the array, so each integral
    takes the steps and gets the bits of its own ``quad``.

    Returns ``(result, abserr)`` of each integral, job by job in the order
    given, and issues their warnings in that order.
    """
    live = [(values, [(row, it) for row, it in integrals if it.advance()])
            for values, integrals in jobs]
    live = [job for job in live if job[1]]
    while live:
        if len(live) == 1 and len(live[0][1]) == 1:
            # The last integral has no other to keep step with.
            ((_, ((_, it),)),) = live
            while it.pending is not None:
                _round_lists(live)
            break
        count = sum(len(it.pending) for _, running in live
                    for _, it in running)
        (_round_arrays if count >= _ARRAY_MIN else _round_lists)(live)
        live = [(values, running) for values, running in
                ((values, [(row, it) for row, it in running
                           if it.pending is not None])
                 for values, running in live) if running]
    return [[it.result() for _, it in integrals] for _, integrals in jobs]


def _round_lists(live: list) -> None:
    """One round of ``_lockstep`` in Python floats."""
    for values, running in live:
        if len(running) == 1:
            # Nothing to share: random scatter's common case, kept lean.
            ((row, it),) = running
            nodes = np.array(it.nodes(it.pending))
            fv = np.asarray(values(nodes)[row], dtype=float) \
                .reshape(nodes.shape)
            it.advance(it.rule(fv.tolist(), it.pending))
            continue
        x: list[float] = []
        for _, it in running:
            x += it.nodes(it.pending)
        nodes = np.array(x)
        parts = values(nodes)
        rows: dict[int, list] = {}
        at = 0
        for row, it in running:
            if row not in rows:
                rows[row] = np.asarray(parts[row], dtype=float) \
                    .reshape(nodes.shape).tolist()
            n = len(it.pending) * it.width
            it.advance(it.rule(rows[row][at:at + n], it.pending))
            at += n


def _round_arrays(live: list) -> None:
    """One round of ``_lockstep`` on arrays: the nodes of all jobs placed
    and each rule applied once per width of rule (21, 15 or 30 nodes)."""
    widths = (21, 15, 30)
    # Per width, the distinct intervals of each job in turn, with the
    # integral that placed each first.
    blocks: dict[int, list] = {w: [] for w in widths}
    owners: dict[int, list] = {w: [] for w in widths}
    jobs = []
    for values, running in live:
        first = {w: len(blocks[w]) for w in widths}
        index: dict[tuple, dict] = {}
        local = []
        for _, it in running:
            taken = blocks[it.width]
            seen = index.get((it.inf, it.boun))
            if seen is None:
                seen = index[it.inf, it.boun] = {}
            mine = []
            for interval in it.pending:
                u = seen.get(interval)
                if u is None:
                    u = seen[interval] = len(taken) - first[it.width]
                    taken.append(interval)
                    owners[it.width].append(it)
                mine.append(u)
            local.append(mine)
        counts = {w: len(blocks[w]) - first[w] for w in widths}
        jobs.append((values, running, first, counts, local))
    placed = {}
    for w, taken in blocks.items():
        if taken:
            a, b = np.array(taken).T
            with np.errstate(all="ignore"):
                if w == 21:
                    placed[w] = _nodes21_array(a, b)
                else:
                    boun = np.array([it.boun for it in owners[w]])
                    dinf = np.array([float(min(1, it.inf))
                                     for it in owners[w]])
                    placed[w] = _nodes15i_array(boun, dinf, w == 30, a, b)
    # The values of row r at block u of a job sit in row base + r n + u of
    # the width's table, n being the job's number of blocks of that width.
    tables: dict[int, list] = {w: [] for w in widths}
    base = dict.fromkeys(widths, 0)
    gather = {w: ([], [], []) for w in widths}
    spans = []
    for values, running, first, counts, local in jobs:
        x = np.concatenate([placed[w][first[w]:first[w] + n].ravel()
                            for w, n in counts.items() if n])
        v = np.asarray(values(x), dtype=float).reshape(-1, x.size)
        at = 0
        for w, n in counts.items():
            if n:
                tables[w].append(v[:, at:at + n * w].reshape(-1, w))
                at += n * w
        for (row, it), mine in zip(running, local):
            w = it.width
            offsets, us, intervals = gather[w]
            spans.append((it, w, len(us), len(mine)))
            offsets += [base[w] + row * counts[w]] * len(mine)
            us += mine
            intervals += it.pending
        for w, n in counts.items():
            base[w] += v.shape[0] * n
    estimates = {}
    for w, (offsets, us, intervals) in gather.items():
        if us:
            fv = np.concatenate(tables[w])[np.add(offsets, us)]
            a, b = np.array(intervals).T
            with np.errstate(all="ignore"):
                out = (_qk21_array(fv, a, b) if w == 21 else
                       _qk15i_array(fv, w == 30, a, b))
            estimates[w] = list(zip(*(column.tolist() for column in out)))
    for it, w, start, n in spans:
        it.advance(estimates[w][start:start + n])
