"""Limited-memory BFGS for smooth unconstrained minimization.

This is the unbounded case of L-BFGS-B (Byrd, Lu, Nocedal and Zhu, SIAM J.
Sci. Comput. 16, 1190 (1995)), step for step:

* the direction is ``-H g``, with ``H`` the inverse Hessian estimate of the
  last ``MEMORY`` pairs ``(s, y)`` (Liu and Nocedal, Math. Prog. 45, 503
  (1989)) in compact form (Byrd, Nocedal and Schnabel, Math. Prog. 63, 129
  (1994)) on ``H0 = (s^T y / y^T y) I`` of the newest pair;
* the first trial step is ``min(1 / |d|, 1e10)`` on the first iteration and
  1 after it, refined by the More-Thuente line search (ACM TOMS 20, 286
  (1994)) with L-BFGS-B's constants and at most ``MAX_EVALS`` evaluations;
  a step the search warns about is taken;
* a failed search (an uphill direction, or no step accepted within
  ``MAX_EVALS`` evaluations) restores the iterate and drops the memory; a
  failure with an empty memory ends the run;
* a pair with ``s^T y <= eps * (-stp g^T d)`` is not stored;
* the run stops once ``max |g| <= GTOL``, once an iteration lowers the cost
  by at most ``ftol * max(|f_old|, |f|, 1)``, or on its budget: more than
  ``maxfun`` evaluations at the end of an iteration.  The budget is tested
  first, after the caller's own stop test (the callback).  L-BFGS-B's
  iteration budget is left out: set equal to ``maxfun`` it never binds,
  since a run has made at least ``nit + 1`` evaluations after ``nit``
  iterations.

Only numpy is needed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

MEMORY = 10
MAX_EVALS = 20
GTOL = 1e-12
#: the message of a run that its callback stopped
STOPPED = "stopped by the callback"
_EPS = float(np.finfo(float).eps)
# More-Thuente sufficient decrease, curvature and interval tolerances
_DECREASE, _CURVATURE, _XTOL = 1e-3, 0.9, 0.1
_STPMAX = 1e10
_EYE = np.eye(MEMORY)


class Result(NamedTuple):
    """Outcome of :func:`minimize`.

    ``status`` is 0 when a convergence test or the callback stopped the run,
    1 when its budget did and 2 when the line search failed with an empty
    memory.
    """

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int
    message: str


def minimize(fun, x0, *, ftol, maxfun, callback) -> Result:
    """Minimize ``fun(x) -> (cost, gradient)`` from ``x0``.

    ``callback(cost)`` runs on the starting cost and after every iteration;
    a true return value ends the run there, with status 0.
    """
    x = np.array(x0, dtype=float).reshape(-1)
    f, g = fun(x)
    nfev, nit = 1, 0
    if callback(f):
        return Result(x, f, nit, nfev, 0, STOPPED)
    memory = _Memory(x.size)
    status, message = 0, "gradient below gtol"
    if np.abs(g).max() <= GTOL:
        return Result(x, f, nit, nfev, status, message)
    while True:
        z = x - memory.times(g)
        d = z - x
        gd = float(d @ g)
        found = None
        if gd < 0.0:
            stp = min(1.0 / math.sqrt(d @ d), _STPMAX) if nit == 0 else 1.0
            found, evals = _line_search(fun, x, z, d, f, gd, stp)
            nfev += evals
        if found is None:
            if memory.pushes:
                memory = _Memory(x.size)
                continue
            status, message = (1 if nfev > maxfun else 2), "line search failed"
            break
        stp, x, f_new, g_new, gd_new = found
        f_old, f, y, g = f, f_new, g_new - g, g_new
        nit += 1
        if callback(f):
            message = STOPPED
            break
        if nfev > maxfun:
            status, message = 1, "budget spent"
            break
        if np.abs(g).max() <= GTOL:
            break
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            message = "relative reduction of f below ftol"
            break
        curvature = (gd_new - gd) * stp
        if curvature > _EPS * (-gd * stp):
            memory.push(stp * d, y, curvature)
    return Result(x, f, nit, nfev, status, message)


class _Memory:
    """The newest ``MEMORY`` pairs ``(s, y)`` and their inverse Hessian.

    ``H = gamma I + W^T middle W`` (Byrd, Nocedal and Schnabel), where ``W``
    stacks the rows of ``S`` and then of ``Y``.  With ``R`` the upper
    triangle of ``S^T Y`` in the order the pairs came and ``D`` the
    diagonal of their curvatures, ``middle`` is ``[[R^-T (D + gamma Y^T Y)
    R^-1, -gamma R^-T], [-gamma R^-1, 0]]`` and ``gamma`` is the newest
    curvature over ``y^T y``.  A curvature is ``s^T y`` from the slopes,
    ``stp (g_new - g)^T d``, as L-BFGS-B takes it, while ``R`` holds dot
    products, its diagonal included; on a cost flat to rounding the two
    differ.  L-BFGS-B, which keeps the direct Hessian form, puts the slope
    curvature on the diagonal of ``S^T Y`` too; here that, like taking ``D``
    from the dot products, fails more line searches at the synthesis floor.

    The pairs sit in a ring of ``MEMORY`` slots, and every matrix is kept
    in slot order, zero where a slot is empty; the products above do not
    depend on the order.  ``R^-1`` is updated in place: a new pair adds a
    column, and dropping the oldest pair drops its row and column, since
    the trailing block of ``R^-1`` is the inverse of the trailing block of
    ``R``.
    """

    def __init__(self, size):
        self.pushes = 0
        self.w = np.zeros((2 * MEMORY, size))
        self.curvatures = np.zeros(MEMORY)
        self.r_inv_t = np.zeros((MEMORY, MEMORY))  # R^-T
        self.yy = np.zeros((MEMORY, MEMORY))
        self.middle = np.zeros((2 * MEMORY, 2 * MEMORY))
        self.gamma = 1.0

    def push(self, s, y, curvature):
        j = self.pushes % MEMORY
        self.pushes += 1
        self.w[j], self.w[MEMORY + j] = s, y
        with_y = self.w @ y
        sy, yy = with_y[:MEMORY], with_y[MEMORY:]
        rho, sy[j] = sy[j], 0.0
        r_inv_t = self.r_inv_t
        r_inv_t[:, j] = 0.0
        r_inv_t[j] = sy @ r_inv_t / -rho
        r_inv_t[j, j] = 1.0 / rho
        self.yy[j], self.yy[:, j] = yy, yy
        self.curvatures[j] = curvature
        self.gamma = gamma = curvature / yy[j]
        inner = gamma * self.yy + _EYE * self.curvatures
        self.middle[:MEMORY, :MEMORY] = r_inv_t @ inner @ r_inv_t.T
        self.middle[:MEMORY, MEMORY:] = -gamma * r_inv_t
        self.middle[MEMORY:, :MEMORY] = -gamma * r_inv_t.T

    def times(self, g):
        """``H g``; with no pairs ``H`` is the identity."""
        if not self.pushes:
            return g
        return self.gamma * g + self.w.T @ (self.middle @ (self.w @ g))


def _line_search(fun, x, z, d, f0, gd0, stp):
    """Search along ``d`` from ``x``, with ``z = x + d``, from step ``stp``.

    Returns ``((stp, x, f, g, g^T d), evaluations)``, the first item None
    when the search fails.
    """
    search = None
    for evals in range(1, MAX_EVALS + 1):
        xt = z if stp == 1.0 else stp * d + x
        f, g = fun(xt)
        gd = float(g @ d)
        if search is None:
            # most first trials already meet the strong Wolfe conditions
            if f <= f0 + stp * (_DECREASE * gd0) and abs(gd) <= _CURVATURE * -gd0:
                return (stp, xt, f, g, gd), evals
            search = _MoreThuente(f0, gd0, stp)
        try:
            new = search.step(stp, f, gd)
        except ZeroDivisionError:
            break
        if new is None:
            return (stp, xt, f, g, gd), evals
        if not math.isfinite(new):
            break
        stp = new
    return None, evals


class _MoreThuente:
    """The line search of MINPACK-2's ``dcsrch`` from a first trial ``stp``.

    ``f0`` and ``g0 < 0`` are the cost and the slope at step 0.  The search
    keeps an interval ``[stx, sty]`` that holds a step meeting the
    sufficient decrease and curvature conditions once it is bracketed.
    """

    def __init__(self, f0, g0, stp):
        self.brackt = False
        self.stage = 1
        self.finit, self.ginit, self.gtest = f0, g0, _DECREASE * g0
        self.width = _STPMAX
        self.width1 = 2.0 * self.width
        self.stx = self.sty = 0.0
        self.fx = self.fy = f0
        self.gx = self.gy = g0
        self.stmin, self.stmax = 0.0, stp + 4.0 * stp

    def step(self, stp, f, g):
        """The next trial after cost ``f`` and slope ``g`` at ``stp``.

        None means ``stp`` is taken: it meets both conditions, or, with a
        warning, rounding or the interval's width stops the search.
        """
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0.0:
            self.stage = 2
        if (
            f <= ftest and abs(g) <= _CURVATURE * -self.ginit
            or self._stuck(stp)
            or stp == _STPMAX and f <= ftest and g <= self.gtest
            or stp == 0.0 and (f > ftest or g >= self.gtest)
        ):
            return None
        gt = self.gtest
        if self.stage == 1 and self.fx >= f > ftest:
            # a lower cost without enough decrease: step on the modified
            # function psi(stp) = f(stp) - f(0) - stp * gtest
            stx, fx, gx, sty, fy, gy, stp, self.brackt = _dcstep(
                self.stx, self.fx - self.stx * gt, self.gx - gt,
                self.sty, self.fy - self.sty * gt, self.gy - gt,
                stp, f - stp * gt, g - gt, self.brackt, self.stmin, self.stmax,
            )
            self.fx, self.gx = fx + stx * gt, gx + gt
            self.fy, self.gy = fy + sty * gt, gy + gt
        else:
            stx, self.fx, self.gx, sty, self.fy, self.gy, stp, self.brackt = _dcstep(
                self.stx, self.fx, self.gx, self.sty, self.fy, self.gy,
                stp, f, g, self.brackt, self.stmin, self.stmax,
            )
        self.stx, self.sty = stx, sty
        if self.brackt:
            if abs(sty - stx) >= 0.66 * self.width1:
                stp = stx + 0.5 * (sty - stx)
            self.width1, self.width = self.width, abs(sty - stx)
            self.stmin, self.stmax = min(stx, sty), max(stx, sty)
        else:
            self.stmin, self.stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _STPMAX)
        return stx if self._stuck(stp) else stp

    def _stuck(self, stp):
        return self.brackt and (
            stp <= self.stmin or stp >= self.stmax
            or self.stmax - self.stmin <= _XTOL * self.stmax
        )


def _root(v):
    return math.sqrt(v) if v >= 0.0 else math.nan


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: a safeguarded cubic or quadratic trial step.

    ``stx`` is the best step so far, ``sty`` the other end of the interval
    and ``stp`` the current trial, each with cost and slope.  Returns the
    updated ``(stx, fx, dx, sty, fy, dy)``, the new trial and ``brackt``.
    """
    opposite = dp < 0.0 < dx or dx < 0.0 < dp
    if fp > fx:
        # a higher cost brackets the minimum: the cubic step, or the mean of
        # the cubic and quadratic steps when the cubic one lies farther out
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _root((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # slopes of opposite sign bracket the minimum: the farther of the
        # cubic and secant steps
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _root((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # same sign, falling slope: the cubic step if the cubic turns up
        # beyond stp, else the secant step, kept inside the interval
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _root(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            edge = stp + 0.66 * (sty - stp)
            stpf = min(edge, stpf) if stp > stx else max(edge, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # same sign, slope not falling, bracketed: the cubic step toward sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * _root((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
