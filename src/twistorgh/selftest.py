"""Internal-consistency oracles relating independent evaluation routes.

Each oracle compares two implementations of the same quantity that share no
code path for the part under test.  The first three evaluate the classifier's
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
    restriction                   product tensors on first-factor arguments
                                  vs. the single-fibre forms
    curvature-commutator          G([r, a], b) vs. <R([a, b]^), x ^ y>
    fibre-kaehler-parallel        D(K Y) = K(D Y) on the fibre under
                                  central-difference field derivatives

A tensor-oracle trial makes two draws: its weights, then one row of normals
for its operator, point and argument coefficients.  Blocks of trials are then
evaluated stacked: the block's operators are built and checked in one call
each, and its residuals come from one call per group of a quarter of the
block, the trials of equal n = 1 + i % 4.  The identity oracles take blocks of
128 trials (groups of 32), and the restriction, whose trials hold no frame
tensor, blocks of 200 (groups of 50); over 640 trials they peak at 0.51 MiB
(nijenhuis-identity) and 0.41 MiB of traced memory.  Both routes take the
drawn frame coefficients as they are: the closed forms build their arguments'
vectors from them (the restriction from those of E_0..E_5), so there is no
tangent to check.  An identity oracle's group runs the classifier's route
before it calls the closed form, so it peaks at the larger of the two routes,
not their sum.  Failures, NaN residuals included, name the worst trial,
reproducible from the seed.  The Nijenhuis closed form writes out the signs that the frame tensor
reads from ``tensors.SIGMA``, so a corrupted table fails the nijenhuis-identity
check; a tier-1 test negates the table to show it.

The curvature-commutator and fibre-kaehler-parallel oracles take blocks of 128
trials too.  A fibre trial draws its J, X and q in turn, and a block evaluates
the fields of its trials of one dimension, 4 for even trials and 6 for odd
ones, as one stack per dimension: one ``tangent_projection_field`` and two
``fibre_levi_civita`` calls each (0.30 MiB traced over 640 trials).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifier, curvature, fibre, tensors
from .tensors import Params

ORACLE_TOLS = {
    "ext-deriv-antisymmetrization": 1e-10,
    "codiff-frame-trace": 1e-10,
    "nijenhuis-identity": 1e-10,
    "restriction": 1e-12,
    "curvature-commutator": 1e-10,
    "fibre-kaehler-parallel": 1e-6,
}

DEFAULT_TRIALS = {
    "ext-deriv-antisymmetrization": 200,
    "codiff-frame-trace": 200,
    "nijenhuis-identity": 200,
    "restriction": 200,
    "curvature-commutator": 1000,
    "fibre-kaehler-parallel": 20,
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


#: trials per block of every oracle but the restriction.  A multiple of 4, so
#: that every block starts at n = 1 and splits into four groups of one n each
#: (32 trials here).  The size is the largest that keeps the identity oracles
#: under the 0.6 MiB traced peak of
#: tests/test_selftest.py::test_oracle_memory_does_not_grow_with_trials: each
#: of their trials holds a full 8x8x8 frame tensor, and over 640 trials
#: nijenhuis-identity peaks at 0.51 MiB (numpy 2.4), 1.01 MiB at 256.  It is
#: selftest's own size, not the classifier's block size, so that resizing the
#: classifier's blocks moves neither selftest's grouping nor its memory and
#: timings.
_BLOCK_TRIALS = 128
#: trials per block of the restriction oracle, whose trials hold no frame
#: tensor: a multiple of 4 that takes the default 200 trials in one block of
#: four groups of 50, and peaks at 0.41 MiB over 640 trials (0.27 MiB at 128)
_RESTRICTION_BLOCK_TRIALS = 200
#: normals per tensor-oracle trial: operator, point, (3, 8) coefficients
_TRIAL_NORMALS = curvature.STRICT_NORMALS + 6 + 24


def _random_configs(rng, count: int):
    """(t1, t2, rmat, rows, coeffs) of ``count`` consecutive trials, stacked along
    one trial axis.  Each trial makes two draws: its weights, then one row of 58
    normals, which holds the 28 of its operator (``curvature.strict_operators``),
    the six of its point (the rows of ``classifier._points``) and the (3, 8)
    frame coefficients of its arguments.  The weights are drawn in place as
    uniforms on [0, 1) and mapped to [0.3, 2) once per block by the arithmetic
    of ``Generator.uniform``, which draws the same numbers.  The block's
    operators are built and checked in one stacked call each."""
    t, z = np.empty((count, 2)), np.empty((count, _TRIAL_NORMALS))
    for i in range(count):
        rng.random(out=t[i])
        rng.standard_normal(out=z[i])
    low, high = 0.3, 2.0
    t = low + (high - low) * t
    ops, rows, coeffs = np.split(z, np.cumsum([curvature.STRICT_NORMALS, 6]), axis=1)
    rmat = curvature.check_operator(curvature.strict_operators(ops), stacked=True)
    return t[:, 0], t[:, 1], rmat, rows, coeffs.reshape(-1, 3, 8)


def _worse(res, worst_val) -> bool:
    """A NaN is worse than any number, and the first NaN stays the worst."""
    return bool(res > worst_val or (np.isnan(res) and not np.isnan(worst_val)))


_ORACLE_STREAM = {
    "ext-deriv-antisymmetrization": 1,
    "codiff-frame-trace": 2,
    "nijenhuis-identity": 3,
    "restriction": 4,
}

#: identity oracles: (classifier condition, closed form's name in ``tensors``,
#: number of argument slots).  The closed form is looked up by name at each
#: call, so a wrapper installed on ``tensors`` after import sees the call.
_IDENTITIES = {
    "ext-deriv-antisymmetrization": ("dΩ", tensors.ext_deriv_omega.__name__, 3),
    "codiff-frame-trace": ("δΩ", tensors.codiff_omega.__name__, 1),
    "nijenhuis-identity": ("N", tensors.nijenhuis_closed_form.__name__, 3),
}


def _group_residuals(kind: str, n: int, t1, t2, rmat, rows, coeffs) -> np.ndarray:
    """Residuals of trials of one structure index n, evaluated stacked."""
    params = Params(t1, t2, n)
    p = classifier._points(rows, ("++", "+-")[(n - 1) % 2])
    if kind == "restriction":  # the coefficients of E_0..E_5: first-factor arguments
        first = np.moveaxis(coeffs[..., :6], 1, 0)
        return np.max([*tensors.restriction_residuals(p, rmat, params, *first).values()], 0)
    cond, closed_form, slots = _IDENTITIES[kind]
    # the classifier's route, the frame tensor contracted by the condition, runs
    # before the closed form builds its arguments' vectors, so a group's peak
    # memory is the larger of the two routes, not their sum
    value = classifier.condition_values(*tensors.frame_tensor(p, rmat, params),
                                        coeffs[:, None], (cond,))[cond][:, 0]
    res = np.abs(getattr(tensors, closed_form)(p, rmat, params,
                                               *np.moveaxis(coeffs[:, :slots], 1, 0)) - value)
    # the frame is H_t-orthonormal, so coefficient norms are H_t norms
    return res / (1.0 + np.prod(np.linalg.norm(coeffs[:, :slots], axis=-1), axis=-1))


def _tensor_oracle(seed: int, trials: int, kind: str) -> OracleResult:
    rng = np.random.default_rng([seed, _ORACLE_STREAM[kind]])
    size = _RESTRICTION_BLOCK_TRIALS if kind == "restriction" else _BLOCK_TRIALS
    worst_val, worst = 0.0, {}
    for start in range(0, trials, size):
        block = _random_configs(rng, min(size, trials - start))
        res = np.empty(len(block[0]))
        for g in range(min(4, len(res))):  # start is a multiple of 4, so n = 1 + g
            res[g::4] = _group_residuals(kind, 1 + g, *(x[g::4] for x in block))
        j = int(np.argmax(res))  # the first NaN, else the first maximum
        if _worse(res[j], worst_val):
            i = start + j
            worst_val, worst = float(res[j]), {"trial": i, "component": ("++", "+-")[i % 2],
                                               "n": 1 + i % 4}
    tol = ORACLE_TOLS[kind]
    return OracleResult(kind, worst_val, tol, trials, worst_val <= tol, worst)


def _curvature_commutator(seed: int, trials: int) -> OracleResult:
    rng = np.random.default_rng([seed, 5])
    worst_val, worst = 0.0, {}
    for start in range(0, trials, _BLOCK_TRIALS):
        # a trial draws m (6, 6), a, b (4, 4), x and y: one row of 76 normals
        m, q, x, y = np.split(rng.standard_normal((min(_BLOCK_TRIALS, trials - start), 76)),
                              [36, 68, 72], axis=1)
        m, q = m.reshape(-1, 6, 6), q.reshape(-1, 2, 4, 4)
        rmat = 0.5 * (m + np.swapaxes(m, -1, -2))
        a, b = np.moveaxis(0.5 * (q - np.swapaxes(q, -1, -2)), 1, 0)
        r = curvature.curvature_endo(rmat, x, y)
        lhs = fibre.inner_G(r @ a - a @ r, b)
        bracket = tensors.two_vector_of_endo(a @ b - b @ a)
        rhs = np.einsum("...ij,...j,...i->...", rmat, bracket, tensors.wedge_of_pair(x, y))
        res = np.abs(lhs - rhs) / (1.0 + np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1))
        j = int(np.argmax(res))  # the first NaN, else the first maximum
        if _worse(res[j], worst_val):
            worst_val, worst = float(res[j]), {"trial": start + j}
    tol = ORACLE_TOLS["curvature-commutator"]
    return OracleResult("curvature-commutator", worst_val, tol, trials, worst_val <= tol, worst)


def _fibre_kaehler(seed: int, trials: int) -> OracleResult:
    rng = np.random.default_rng([seed, 6])
    worst_val, worst = 0.0, {}
    for start in range(0, trials, _BLOCK_TRIALS):
        # trial i draws J, then X, then q, on the fibre of dimension 4 (even i)
        # or 6 (odd i); start is even, so the block's trials of one dimension
        # are every other one, and each dimension is evaluated as one stack
        count = min(_BLOCK_TRIALS, trials - start)
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
            field = fibre.tangent_projection_field(0.5 * (q - np.swapaxes(q, -1, -2)))
            k_field = fibre.FibreVectorField(evaluate=lambda a, f=field: a @ f.evaluate(a))
            lhs = fibre.fibre_levi_civita(k_field, x, j)
            rhs = j @ fibre.fibre_levi_civita(field, x, j)
            res[first::2] = np.max(np.abs(lhs - rhs), axis=(-2, -1))
        i = int(np.argmax(res))  # the first NaN, else the first maximum
        if _worse(res[i], worst_val):
            worst_val, worst = float(res[i]), {"trial": start + i, "dim": 6 if i % 2 else 4}
    tol = ORACLE_TOLS["fibre-kaehler-parallel"]
    return OracleResult("fibre-kaehler-parallel", worst_val, tol, trials, worst_val <= tol, worst)


def run_selftest(seed: int = 1, trials: int | None = None) -> list[OracleResult]:
    """Run every oracle; ``trials`` overrides the per-oracle defaults."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")

    def count(kind: str) -> int:
        return trials if trials is not None else DEFAULT_TRIALS[kind]

    out = [_tensor_oracle(seed, count(k), k)
           for k in ("ext-deriv-antisymmetrization", "codiff-frame-trace",
                     "nijenhuis-identity", "restriction")]
    out.append(_curvature_commutator(seed, count("curvature-commutator")))
    out.append(_fibre_kaehler(seed, count("fibre-kaehler-parallel")))
    return out


def all_ok(results: list[OracleResult]) -> bool:
    return all(r.ok for r in results)
