"""Internal-consistency oracles relating independent evaluation routes.

Each oracle compares two implementations of the same quantity that share no
code path for the part under test.  The first four evaluate the classifier's
own route: ``classifier.condition_values`` on the frame tensor
``tensors.frame_tensor``, with the condition's coefficients drawn in the
H_t-orthonormal frame.

    ext-deriv-antisymmetrization  closed-form d Omega vs. the classifier's
                                  d Omega, the cyclic sum of the frame tensor
    codiff-frame-trace            closed-form delta Omega vs. the classifier's
                                  delta Omega, the negative frame trace
    nijenhuis-identity            the closed form, whose signs are written out
                                  from n, vs. the classifier's N, the
                                  D Omega identity contracted with Jn
    restriction                   the single-fibre forms (Atiyah-Hitchin-Singer,
                                  Eells-Salamon) vs. the classifier's D Omega,
                                  W1-cond, d Omega and delta Omega on
                                  first-factor arguments, unnormalised
    curvature-commutator          G([r, a], b) vs. <R([a, b]^), x ^ y>
    fibre-kaehler-parallel        D(K Y) = K(D Y) on the fibre under
                                  central-difference field derivatives

``ORACLES`` gives each oracle, in report order, its stream, tolerance and
trials.  ``_scan`` runs an oracle in blocks of 200 trials drawn from
its generator ``[seed, stream]``, and names the worst trial, the first NaN
else the first maximum, reproducible from the seed.  A tensor oracle (the
first four) draws a block's weights in one call on a second generator
``[seed, stream, 1]``, and its rows of 58 normals, for each trial's operator,
point and argument coefficients, in one call on the first; each generator
fills a block in trial order, so a trial's draws do not depend on the block
size.  The block's operators are built in one call, valid by construction
and so not checked, and its residuals come from one call per group of a
quarter of the block (50 trials), the trials of equal n = 1 + i % 4, whose
component ``_GROUP_COMPONENTS`` gives (+-, --, -+, ++ for n = 1..4, so the
groups meet both signs of s1, s2, k1 s1 and k2 s2): one point, one frame
tensor and one call per closed form per group.  The group's
frame tensor is contracted over slices of 17 trials, and dropped before the
closed forms run over the whole group, so a group peaks at the larger of the
two routes, not their sum.  Both routes take the drawn frame
coefficients as they are: the closed forms build their arguments' vectors
from them, so there is no tangent to check.  The Nijenhuis closed form and the
single-fibre forms write out the signs that the frame tensor reads from
``tensors.SIGMA``, so a corrupted table fails the nijenhuis-identity and
restriction checks; tier-1 tests negate the table, or one of its entries, to
show it.  Others drop s1 from the frame tensor's coefficients, or s1 or k2 s2
from the vertical blocks of the frame's Jn, and see the oracles fail.

The curvature-commutator oracle draws a block's rows of 76 normals in one
call and evaluates them as one stack.  A fibre trial draws its J, X and q in
turn, and a block evaluates its trials of one dimension, 4 for even trials and
6 for odd ones, as one stack per dimension: two ``fibre_levi_civita`` calls
each, on the plain functions a -> (q + a q a)/2 and a -> a (q + a q a)/2 of
the stack's skews q.  These draws are valid by construction too, so a NaN
among them reaches the residual unchecked.  Over 640 trials every oracle
peaks at 0.56 MiB (restriction) or less of traced memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import classifier, curvature, fibre, tensors
from .tensors import Params


class _Oracle(NamedTuple):
    stream: int  # the oracle's seeded generator is [seed, stream]
    tol: float
    trials: int


#: every oracle, in report order
ORACLES = {
    "ext-deriv-antisymmetrization": _Oracle(1, 1e-10, 200),
    "codiff-frame-trace": _Oracle(2, 1e-10, 200),
    "nijenhuis-identity": _Oracle(3, 1e-10, 200),
    "restriction": _Oracle(4, 1e-12, 200),
    "curvature-commutator": _Oracle(5, 1e-10, 1000),
    "fibre-kaehler-parallel": _Oracle(6, 1e-6, 20),
}


@dataclass
class OracleResult:
    name: str
    max_residual: float
    tol: float
    trials: int
    ok: bool
    worst: dict

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return (f"{status} {self.name:<32} max={self.max_residual:.3e} "
                f"tol={self.tol:.0e} trials={self.trials} worst={self.worst}")


#: trials per block of every oracle.  A multiple of 4, so that every block
#: starts at n = 1 and splits into four groups of one n each (50 trials here):
#: each tensor oracle's 200 trials are one block, whose groups each make
#: one ``_points`` call, one ``frame_tensor`` call and one call per closed form.
#: The closed forms hold no frame tensor, and over 640 trials every oracle peaks
#: at 0.56 MiB (restriction) or less of traced memory (numpy 2.4), under the 0.6 MiB of
#: tests/test_selftest.py::test_oracle_memory_does_not_grow_with_trials.  It is
#: selftest's own size, not the classifier's block size, so that resizing the
#: classifier's blocks moves neither selftest's grouping nor its memory and
#: timings.
_BLOCK_TRIALS = 200
#: trials per slice of a tensor group's frame tensor that ``condition_values``
#: contracts at once: each condition's Q holds a full 8x8x8 tensor per trial,
#: so the contraction runs over slices of at most this many trials (three per
#: full group).  At 25, nijenhuis-identity peaks at 0.604 MiB over 640 trials,
#: over the bound.
_ROUTE_TRIALS = 17
#: the component of a tensor oracle's n-group for n = 1..4, so the groups meet
#: both signs of s1, s2 and of Jn's vertical actions k1 s1 and k2 s2
_GROUP_COMPONENTS = ("+-", "--", "-+", "++")
#: normals per tensor-oracle trial: operator, point, (3, 8) coefficients
_TRIAL_NORMALS = curvature.STRICT_NORMALS + 6 + 24


def _random_configs(rng, weights, count: int):
    """(t1, t2, rmat, rows, coeffs) of ``count`` consecutive trials, stacked along
    one trial axis.  ``weights`` draws the trials' (t1, t2) in one call, and
    ``rng`` their rows of 58 normals in one call: the 28 of a trial's operator
    (``curvature.strict_operators``), the six of its point (the rows of
    ``classifier._points``) and the (3, 8) frame coefficients of its arguments.
    Each generator fills its block in trial order, so a trial's draws do not
    depend on the block size.  The block's operators are built in one stacked
    call, symmetric and finite by construction."""
    t1, t2 = weights.uniform(0.3, 2.0, (count, 2)).T
    ops, rows, coeffs = np.split(rng.standard_normal((count, _TRIAL_NORMALS)),
                                 np.cumsum([curvature.STRICT_NORMALS, 6]), axis=1)
    return t1, t2, curvature.strict_operators(ops), rows, coeffs.reshape(-1, 3, 8)


def _worse(res, worst_val) -> bool:
    """A NaN is worse than any number, and the first NaN stays the worst."""
    return bool(res > worst_val or (np.isnan(res) and not np.isnan(worst_val)))


def _scan(name: str, seed: int, trials: int, block, where) -> OracleResult:
    """The oracle ``name`` over ``trials`` trials drawn from ``[seed, stream]``:
    ``block(rng, count)`` draws and evaluates the next ``count`` trials, at most
    _BLOCK_TRIALS at a time, into their residuals, and ``where(i)`` describes
    the worst trial i."""
    oracle = ORACLES[name]
    rng = np.random.default_rng([seed, oracle.stream])
    worst_val, worst = 0.0, {}
    for start in range(0, trials, _BLOCK_TRIALS):
        res = block(rng, min(_BLOCK_TRIALS, trials - start))
        j = int(np.argmax(res))  # the first NaN, else the first maximum
        if _worse(res[j], worst_val):
            worst_val, worst = float(res[j]), where(start + j)
    return OracleResult(name, worst_val, oracle.tol, trials, worst_val <= oracle.tol, worst)


#: identity oracles: (classifier condition, closed form's name in ``tensors``,
#: number of argument slots).  The closed forms, these and the single-fibre
#: forms, are looked up on ``tensors`` at each call, so a wrapper installed
#: there after import sees the call.
_IDENTITIES = {
    "ext-deriv-antisymmetrization": ("dΩ", tensors.ext_deriv_omega.__name__, 3),
    "codiff-frame-trace": ("δΩ", tensors.codiff_omega.__name__, 1),
    "nijenhuis-identity": ("N", tensors.nijenhuis_closed_form.__name__, 3),
}
#: the classifier conditions the restriction compares with the single-fibre forms
_RESTRICTED = ("DΩ", "W1-cond", "dΩ", "δΩ")


def _group_residuals(kind: str, p, rmat, params: Params, coeffs) -> np.ndarray:
    """Residuals of trials of one structure index, evaluated stacked: the stacked
    point ``p``, its operators and weights, and coefficients (trials, 3, 8)."""
    if kind == "restriction":  # first-factor arguments: E_6, E_7 at zero
        coeffs = np.concatenate((coeffs[..., :6], np.zeros(coeffs.shape[:-1] + (2,))), axis=-1)
    conds = _RESTRICTED if kind == "restriction" else (_IDENTITIES[kind][0],)
    # the classifier's route: the group's one frame tensor, contracted by each
    # condition in slices of _ROUTE_TRIALS, and dropped before the closed forms
    # build their arguments' vectors, so a group's peak memory is the larger of
    # the two routes, not their sum
    T, M = tensors.frame_tensor(p, rmat, params)
    value = np.empty((len(conds), len(coeffs)))
    for lo in range(0, len(coeffs), _ROUTE_TRIALS):
        c = slice(lo, lo + _ROUTE_TRIALS)
        out = classifier.condition_values(T[c], M[c], coeffs[c, None], conds)
        value[:, c] = [out[cond][:, 0] for cond in conds]
    del T, M
    if kind == "restriction":  # n = 1, 2 restrict to the single structure k = 1, else k = 2
        k, t = 1 if params.n in (1, 2) else 2, params.t1
        g = tensors.frame_vectors(p, params, np.moveaxis(coeffs, 1, 0))
        both = [[0, 0], [1, 0], [2, 2]]  # the slots (A, B, C) and (A, A, C), stacked
        single = (*tensors.single_cov_deriv(p.j1, rmat, t, k, g.horizontal[both], g.v1[both]),
                  tensors.single_ext_deriv(rmat, t, k, g.horizontal, g.v1),
                  tensors.single_codiff(p.j1, rmat, t, g.v1[0]))
        return np.max(np.abs(value - single), axis=0)
    _, closed_form, slots = _IDENTITIES[kind]
    res = np.abs(getattr(tensors, closed_form)(p, rmat, params,
                                               *np.moveaxis(coeffs[:, :slots], 1, 0)) - value[0])
    # the frame is H_t-orthonormal, so coefficient norms are H_t norms
    return res / (1.0 + np.prod(np.linalg.norm(coeffs[:, :slots], axis=-1), axis=-1))


def _tensor_oracle(seed: int, trials: int, kind: str) -> OracleResult:
    weights = np.random.default_rng([seed, ORACLES[kind].stream, 1])

    def block(rng, count):
        configs = _random_configs(rng, weights, count)
        res = np.empty(count)
        for g in range(min(4, count)):  # a block starts at n = 1, so n = 1 + g
            t1, t2, rmat, rows, coeffs = (x[g::4] for x in configs)
            p = classifier._points(rows, _GROUP_COMPONENTS[g])
            res[g::4] = _group_residuals(kind, p, rmat, Params(t1, t2, 1 + g), coeffs)
        return res

    return _scan(kind, seed, trials, block,
                 lambda i: {"trial": i, "component": _GROUP_COMPONENTS[i % 4], "n": 1 + i % 4})


def _curvature_commutator(seed: int, trials: int) -> OracleResult:
    def block(rng, count):
        # a trial draws m (6, 6), a, b (4, 4), x and y: one row of 76 normals
        m, q, x, y = np.split(rng.standard_normal((count, 76)), [36, 68, 72], axis=1)
        m, q = m.reshape(-1, 6, 6), q.reshape(-1, 2, 4, 4)
        rmat = 0.5 * (m + np.swapaxes(m, -1, -2))
        a, b = np.moveaxis(0.5 * (q - np.swapaxes(q, -1, -2)), 1, 0)
        r = curvature.curvature_endo(rmat, x, y)
        lhs = fibre.inner_G(r @ a - a @ r, b)
        bracket = tensors.two_vector_of_endo(a @ b - b @ a)
        rhs = np.einsum("...ij,...j,...i->...", rmat, bracket, tensors.wedge_of_pair(x, y))
        return np.abs(lhs - rhs) / (1.0 + np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1))

    return _scan("curvature-commutator", seed, trials, block, lambda i: {"trial": i})


def _fibre_kaehler(seed: int, trials: int) -> OracleResult:
    def block(rng, count):
        # trial i draws J, then X, then q, on the fibre of dimension 4 (even i)
        # or 6 (odd i); a block starts at an even trial, so its trials of one
        # dimension are every other one, and each dimension is one stack
        draws = {4: [], 6: []}
        for i in range(count):
            dim = 6 if i % 2 else 4
            j = fibre.random_complex_structure(dim, rng)
            draws[dim].append((j, fibre.random_tangent(j, rng), rng.standard_normal((dim, dim))))
        res = np.empty(count)
        for first, dim in enumerate((4, 6)):
            if not draws[dim]:
                continue
            j, x, q = (np.array(a) for a in zip(*draws[dim]))
            skew = 0.5 * (q - np.swapaxes(q, -1, -2))
            lhs = fibre.fibre_levi_civita(lambda a: a @ fibre.tangent_projection(a, skew), x, j)
            rhs = j @ fibre.fibre_levi_civita(lambda a: fibre.tangent_projection(a, skew), x, j)
            res[first::2] = np.max(np.abs(lhs - rhs), axis=(-2, -1))
        return res

    return _scan("fibre-kaehler-parallel", seed, trials, block,
                 lambda i: {"trial": i, "dim": 6 if i % 2 else 4})


def _oracle(name: str, seed: int, trials: int) -> OracleResult:
    """The oracle ``name`` over ``trials`` trials.  The oracles are looked up at
    each call, so a wrapper installed on the module after import sees the call."""
    if name == "curvature-commutator":
        return _curvature_commutator(seed, trials)
    if name == "fibre-kaehler-parallel":
        return _fibre_kaehler(seed, trials)
    return _tensor_oracle(seed, trials, name)


def run_selftest(seed: int = 1) -> list[OracleResult]:
    """Run every oracle at its trials in ``ORACLES``.  The seed obeys the rule of
    ``classifier.SamplingConfig``: a non-negative integer, else ClassifierError."""
    seed = classifier.SamplingConfig(seed).seed
    return [_oracle(name, seed, oracle.trials) for name, oracle in ORACLES.items()]


def all_ok(results: list[OracleResult]) -> bool:
    return all(r.ok for r in results)
