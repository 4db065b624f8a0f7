"""Gray-Hervella class detection by seeded sampling, and the theorem suite.

Almost Hermitian structures are classified by which covariant-derivative
conditions on the fundamental form hold identically.  The detector samples
points (J1, J2) uniformly from the unit spheres of the two-vector halves
selected by the component, draws tangent argument triples with
standard-normal coefficients in an H_t-orthonormal frame, and records the
supremum of each normalized condition residual:

    K        D Omega = 0
    W1       (D_A Omega)(A, C) = 0
    W2       d Omega = 0
    W3       N = 0 and delta Omega = 0
    W1+W2    (D_A Omega)(B, C) + (D_{JA} Omega)(JB, C) = 0
    W1+W3    (D_A Omega)(A, C) - (D_{JA} Omega)(JA, C) = 0 and delta Omega = 0
    W2+W3    cyclic sum of (D_A Omega)(B, C) - (D_{JA} Omega)(JB, C) = 0
             and delta Omega = 0
    W1+W2+W3 delta Omega = 0

Every condition is linear in D Omega, so each sampled point is evaluated
from two frame arrays (``tensors.frame_tensor``) in the H_t-orthonormal
frame (E_a): T[a, b, c] = (D_{E_a} Omega)(E_b, E_c) and the matrix M of Jn,
so that Jn A has coefficients M x when A has coefficients x.  A condition
is one tensor Q, linear in T, with value Q[a, b, c] X[a] Y[b] Z[c] on its
argument slots (A, B, C), or (A, A, C) for W1 and W1+W3, or (A) for delta
Omega; the slots also pick the norms.  With tj = T(JX, Y, Z), i.e.
tj[a, b, c] = sum_i M[i, a] T[i, b, c], tjj = T(JX, JY, Z) and
S = T(JX, Y, Z) + T(X, JY, Z):

    D Omega, W1   T                              W1+W2   T + tjj
    d Omega       T + T[b,c,a] + T[c,a,b]        W1+W3   T - tjj
    N             S[a,b,c] - S[b,a,c]            W2+W3   cyclic sum of T - tjj
    delta Omega   -T[a,a,c] (one slot: a trace)

Points are evaluated in geometry blocks of ``BLOCK_POINTS`` (32): one draw
gives the block's sphere points and coefficient triples, the structures and
their vertical basis rows are built stacked, one ``frame_tensor`` call gives
the stacked T[p, a, b, c] and M[p, b, a] of the block, and the coefficient
norms are taken once.  The block is then contracted in chunks of
``CHUNK_POINTS`` (16), one ``condition_values`` call per chunk.  A call that
asks one or two conditions spends most of its time on the geometry, which
32-point blocks build half as often as 16-point ones; the chunks keep the
argument outer products, the largest arrays, 16 points wide, so the peak
memory stays under 1 MiB.  A chunk's contraction forms the J-twists tj and
tjj at most once for all conditions: tjj first, then tj turns into S in
place and is dropped once N is formed.  The (A, B, C) conditions share one
outer product X (x) Y of the chunk's arguments, and the (A, A, C)
conditions share X (x) X, formed after the first is dropped; each
condition is then one matmul of its outer product against Q, seen as
(64, 8), and one dot with Z, while delta Omega is one matvec.  Each
chunk's sup is one stacked abs, divide and max over the requested
conditions.  The point functions (``_points``, the
``fourdim.OrientedComplexStructure4`` constructor with its basis rows, and
``tensors.frame_tensor``) take one point or a stack with the same code.

A block's structures depend only on its sphere rows and the component, and
calls at one seed draw the same rows (the theorem suite's calls share one
seed), so ``condition_residuals`` takes them from a least-recently-used cache
of ``GEOMETRY_CACHE_BLOCKS`` blocks (``_block_points``).  Its key is the
block's contiguous sphere rows as bytes, their shape and the component, so a
hit does not depend on how a seed maps to rows; the cached arrays are
read-only.  The seeded draw and the coefficient norms are not cached.  The
self-test calls ``_points`` directly: its rows never recur, and cached
entries would only add to its retained memory.

Raw residuals are divided by (1 + product of argument norms) so tolerances
are scale-free, and a single violating sample fails a class (sup, not mean).
The detected class is the smallest lattice element whose conditions all pass,
each residual at most ``TOL``.

The theorem suite (ids 4.2a .. 4.9b) checks each classification statement in
both directions: the witness operators satisfy the class conditions at
tolerance ``TOL`` on the full sample ``SAMPLE``, and perturbing any hypothesis
(extra self-dual Weyl part, extra traceless-Ricci block, scalar shift, 10%
shift of t1) pushes a residual above 1e-3 on ``REDUCED_SAMPLE``, 16 points
with 8 triples each.  Every violation is sampled there,
the never-Kaehler residuals of 4.2a too, with their bound 0.1.  The
pointwise counterexamples of 4.2a and 4.6a are entries of the frame tensor
at one fixed point, so the suite, like the detector, reads only the frame
tensor.  Statement i of ``THEOREM_IDS`` draws
from its own stream ``default_rng([seed, i])``: t2, then the traceless W-
(scale 0.7), then the B block of 4.3a and 4.4a, then one draw per
perturbation in check order.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import curvature, tensors
from .fourdim import OrientedComplexStructure4
from .tensors import Params, ProductTwistorPoint

CONDITIONS = ("DΩ", "W1-cond", "dΩ", "N", "δΩ",
              "quasi-cond", "W1W3-cond", "W2W3-cond")
_DOM, _W1, _DEXT, _NIJ, _DELTA, _QUASI, _W13, _W23 = CONDITIONS

CLASS_ORDER = ("K", "W1", "W2", "W3", "W1W2", "W1W3", "W2W3", "W1W2W3", "OTHER")
CLASS_CONDITIONS: dict[str, tuple[str, ...]] = {
    "K": (_DOM,),
    "W1": (_W1,),
    "W2": (_DEXT,),
    "W3": (_NIJ, _DELTA),
    "W1W2": (_QUASI,),
    "W1W3": (_W13, _DELTA),
    "W2W3": (_W23, _DELTA),
    "W1W2W3": (_DELTA,),
    "OTHER": (),
}

#: classes a strict operator can produce, by structure index: the least classes
#: of the strict cells of the atlas, united over the four components
ALLOWED_DETECTED = {
    1: frozenset({"W3", "OTHER"}),
    2: frozenset({"W3", "OTHER"}),
    3: frozenset({"W1W2", "W1W3", "W2W3", "W1W2W3", "OTHER"}),
    4: frozenset({"W1W2", "W1W3", "W2W3", "W1W2W3", "OTHER"}),
}

COMPONENTS = ("++", "+-", "-+", "--")

#: (points, argument triples per point) sampled by ``classify`` and the suite's
#: witnesses, and by the suite's violations, which are dense
SAMPLE = (64, 32)
REDUCED_SAMPLE = (16, 8)

#: the residual at or below which a condition holds: ``classify``'s lattice test
#: and the bound of the suite's witnesses
TOL = 1e-9

#: points per geometry block of ``condition_residuals``: one draw, one stacked
#: frame tensor and one set of coefficient norms each.  Against 16-point blocks,
#: 32 build the geometry half as often, which shows most in verify's calls of
#: one or two conditions (BENCH_14.json).  A default-config call then peaks at
#: 943 KiB traced (numpy 2.4); 64-point blocks would peak at 1260 KiB, over
#: the 1 MiB that tests/test_classifier.py::TestMemory allows.
BLOCK_POINTS = 32
#: points per contraction chunk of a geometry block: the argument outer
#: products of ``condition_values``, the largest arrays, are (chunk, triples,
#: 64) wide.
CHUNK_POINTS = 16
#: geometry blocks whose structures ``condition_residuals`` keeps for later calls
#: that draw the same sphere rows.  ``verify --all`` needs 6: two full blocks and
#: one reduced block on each of ``++`` and ``+-``.  A 32-point entry holds about
#: 23 KiB.
GEOMETRY_CACHE_BLOCKS = 8


class ClassifierError(ValueError):
    """Unknown condition, component or theorem id, or an invalid argument."""


def _as_int(value, name: str) -> int:
    """``value`` as a Python int; a bool or a non-integer is a ClassifierError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ClassifierError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SamplingConfig:
    """The seed of ``condition_residuals``' draw of points and argument triples,
    whose sizes are fixed: ``SAMPLE``, 64 sphere points with 32 argument triples
    each, for ``classify`` and the suite's witnesses, and ``REDUCED_SAMPLE``, 16
    points with 8 triples each, for the suite's violations.
    """

    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        if self.seed < 0:
            raise ClassifierError(f"seed must be a non-negative integer, got {self.seed}")


def component_signs(component: str) -> tuple[int, int]:
    if component not in COMPONENTS:
        raise ClassifierError(f"component must be one of {COMPONENTS}, got {component!r}")
    return (1 if component[0] == "+" else -1, 1 if component[1] == "+" else -1)


def _points(rows, component: str) -> ProductTwistorPoint:
    """The point(s) of sphere rows (u1, u2) = (rows[..., :3], rows[..., 3:6]),
    which the structures normalise; leading axes of ``rows`` give a stacked point."""
    s1, s2 = component_signs(component)
    return ProductTwistorPoint(OrientedComplexStructure4(rows[..., :3], s1),
                               OrientedComplexStructure4(rows[..., 3:6], s2))


@functools.lru_cache(maxsize=GEOMETRY_CACHE_BLOCKS)
def _block_points(key: bytes, shape: tuple[int, ...], component: str) -> ProductTwistorPoint:
    """``_points`` of the sphere rows whose float64 bytes are ``key``, kept for the
    next call with the same rows; the cached arrays are read-only."""
    p = _points(np.frombuffer(key).reshape(shape), component)
    for j in (p.j1, p.j2):
        for a in (j.u, j.wedge, j.matrix, j.basis):
            a.flags.writeable = False
    return p


_A, _B, _C = range(3)
#: argument slots of each condition; they also pick the norms
_SLOTS = dict.fromkeys(CONDITIONS, (_A, _B, _C)) | {_W1: (_A, _A, _C), _W13: (_A, _A, _C),
                                                    _DELTA: (_A,)}


def _cyclic(q):
    """q[a, b, c] + q[b, c, a] + q[c, a, b] over the last three axes, summed in
    that order into one new array.  The rotations are transposed views with
    the axes spelled out, which skips ``np.moveaxis``'s axis normalisation."""
    lead = range(q.ndim - 3)
    s = q + q.transpose(*lead, -1, -3, -2)
    s += q.transpose(*lead, -2, -1, -3)
    return s


_TWISTED = frozenset({_NIJ, _QUASI, _W13, _W23})  # built from T(JX, Y, Z)


def _condition_tensors(T, M, conditions):
    """(condition, Q) for each of ``conditions``: Q is the tensor over the condition's
    slots, linear in T, whose value is Q[a, b, c] X[a] Y[b] Z[c] for the slot
    arguments (X, Y, Z).  The (A, B, C) conditions come first, then (A, A, C), then
    delta Omega, so a consumer needs one argument outer product at a time.  The
    J-twists T(JX, Y, Z) and T(JX, JY, Z) are formed at most once, T(JX, JY, Z)
    first, so that T(JX, Y, Z) can then turn into N's sum S in place."""
    want = set(conditions)
    if _DOM in want:
        yield _DOM, T
    if _DEXT in want:
        yield _DEXT, _cyclic(T)
    tjj = None
    if want & _TWISTED:
        mt = np.swapaxes(M, -1, -2)
        tj = (mt @ T.reshape(T.shape[:-2] + (64,))).reshape(T.shape)  # T(JX, Y, Z)
        if want & (_TWISTED - {_NIJ}):
            tjj = mt[..., None, :, :] @ tj  # T(JX, JY, Z)
        if _NIJ in want:
            tj += mt[..., None, :, :] @ T  # S = T(JX, Y, Z) + T(X, JY, Z)
            # N = S - S[b, a, c]: numpy subtracts a contiguous copy of the
            # transpose without the buffer that a strided operand takes
            nij = np.swapaxes(tj, -3, -2).copy()
            np.subtract(tj, nij, out=nij)
        del tj  # S is dropped before N is yielded
    if _NIJ in want:
        yield _NIJ, nij
        del nij
    if _QUASI in want:
        yield _QUASI, T + tjj
    if _W23 in want:
        yield _W23, _cyclic(T - tjj)
    if _W1 in want:
        yield _W1, T
    if _W13 in want:
        yield _W13, T - tjj
    if _DELTA in want:
        yield _DELTA, -np.trace(T, axis1=-3, axis2=-2)


def condition_values(T, M, coeffs, conditions=CONDITIONS) -> dict[str, np.ndarray]:
    """Raw condition values for each argument triple.

    ``T`` (..., 8, 8, 8) and ``M`` (..., 8, 8) come from
    :func:`tensors.frame_tensor`; ``coeffs`` (..., k, 3, 8) holds the frame
    coefficients of (A, B, C), or only of the slots the conditions use.
    Returns one (..., k) array per condition.  The conditions over the same
    slots share the outer product of their first two arguments, so each is
    one matmul of it against Q and a dot with its last argument; delta Omega
    is one matvec.  Leading axes of T and of ``coeffs`` broadcast.
    """
    out = {}
    pair = outer = None
    for c, q in _condition_tensors(T, M, conditions):
        *head, last = _SLOTS[c]
        z = coeffs[..., last, :]
        if not head:  # delta Omega: Q is a vector over its one slot
            out[c] = (z @ q[..., None])[..., 0]
        else:
            if head != pair:
                outer = None  # drop the previous outer product first
                x, y = (coeffs[..., i, :] for i in head)
                outer = (x[..., :, None] * y[..., None, :]).reshape(x.shape[:-1] + (64,))
                pair = head
            out[c] = np.einsum("...i,...i->...", outer @ q.reshape(q.shape[:-3] + (64, 8)), z)
        del q  # free Q before the next one is formed
    return {c: out[c] for c in conditions}


def condition_residuals(rmat, component: str, t, n: int, cfg: SamplingConfig,
                        conditions=CONDITIONS, sample=SAMPLE) -> dict[str, float]:
    """Sup of the normalized condition residuals over the seeded sample of
    ``sample`` = (points, argument triples per point).

    The random stream depends only on the seed, never on the requested
    condition subset, so residuals agree between partial and full runs.
    Each point draws u1 (3 normals), u2 (3) and its coefficient triples
    (k, 3, 8) in turn; points are evaluated in blocks of ``BLOCK_POINTS``,
    which draw the same stream as one row of 6 + 24 k normals per point, and
    each block is contracted in chunks of ``CHUNK_POINTS``.  A block's
    structures come from the cache ``_block_points``, keyed by its sphere rows.
    The float (6, 6) operator is unchecked: ``classify`` checks it, the suite builds it.
    """
    for c in conditions:
        if c not in CONDITIONS:
            raise ClassifierError(f"unknown condition {c!r}; known: {CONDITIONS}")
    params = Params(float(t[0]), float(t[1]), n)
    rng = np.random.default_rng(cfg.seed)
    num_points, k = sample
    slots = [_SLOTS[c] for c in conditions]
    if not slots:
        return {}
    sup = np.zeros(len(slots))

    for start in range(0, num_points, BLOCK_POINTS):
        rows = rng.standard_normal((min(BLOCK_POINTS, num_points - start), 6 + 24 * k))
        coeffs = rows[:, 6:].reshape(-1, k, 3, 8)
        sphere = np.ascontiguousarray(rows[:, :6])
        T, M = tensors.frame_tensor(_block_points(sphere.tobytes(), sphere.shape, component),
                                    rmat, params)
        # the frame is H_t-orthonormal, so coefficient norms are H_t norms
        norms = np.sqrt(np.einsum("...i,...i->...", coeffs, coeffs))
        nrm = {s: 1.0 + np.prod(norms[..., s], axis=-1) for s in set(slots)}
        del norms
        for lo in range(0, len(rows), CHUNK_POINTS):
            chunk = slice(lo, lo + CHUNK_POINTS)
            vals = condition_values(T[chunk], M[chunk], coeffs[chunk], conditions)
            # np.maximum and np.max keep a NaN that the builtin max would drop
            sup = np.maximum(sup, np.max(np.abs(np.stack([vals[c] for c in conditions]))
                                         / np.stack([nrm[s][chunk] for s in slots]),
                                         axis=(1, 2)))
            del vals  # free the chunk's values before the next chunk is contracted
    return {c: float(v) for c, v in zip(conditions, sup)}


@dataclass
class ClassReport:
    residuals: dict[str, float]
    detected: str
    config: dict
    flags: dict

    def to_json_dict(self) -> dict:
        return {
            "schema": "gh-class-report/2",
            "config": dict(self.config),
            "residuals": {c: self.residuals[c] for c in CONDITIONS},
            "detected": self.detected,
            "flags": dict(self.flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        """The fields of ``to_json_dict`` as a header and a row: detected, config,
        flags, then residuals.  A float cell is its repr, any other its str; a
        cell holding a comma, quote or newline is quoted."""
        doc = self.to_json_dict()
        cells = {"detected": doc["detected"], **doc["config"], **doc["flags"], **doc["residuals"]}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cells)
        writer.writerow(repr(v) if isinstance(v, float) else str(v) for v in cells.values())
        return buf.getvalue()


def classify(rmat, component: str, t, n: int, cfg: SamplingConfig,
             source: str = "") -> ClassReport:
    """Full residual table plus the minimal class whose residuals are all at most ``TOL``.

    ``n`` must be an integer in 1..4, ``t`` a pair of numbers (not bools or strings),
    each positive and finite, ``cfg`` a SamplingConfig and ``source`` a string, else
    ClassifierError.
    For strict operators a detected class outside the possible set for the given n
    is flagged, not silenced.  A non-finite residual (the operator or the weights
    overflow) raises ClassifierError instead of passing every test.
    """
    blocks = curvature.decompose(rmat)  # the checked float operator and its blocks
    n = _as_int(n, "n")
    if n not in (1, 2, 3, 4):
        raise ClassifierError(f"n must be in 1..4, got {n}")
    pair = tuple(t) if np.iterable(t) else ()
    if len(pair) != 2 or not curvature._numbers(pair):
        raise ClassifierError(f"t must be a pair (t1, t2) of numbers, got {t!r}")
    if not all(0 < x <= sys.float_info.max for x in pair):  # a NaN fails too
        raise ClassifierError(f"t1, t2 must be positive and finite, got {t!r}")
    if not isinstance(cfg, SamplingConfig):
        raise ClassifierError(f"cfg must be a SamplingConfig, got {cfg!r}")
    if not isinstance(source, str):
        raise ClassifierError(f"source must be a string, got {source!r}")
    t1, t2 = t = tuple(map(float, pair))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        residuals = condition_residuals(blocks.matrix, component, t, n, cfg)
    bad = [c for c, r in residuals.items() if not np.isfinite(r)]
    if bad:
        raise ClassifierError(f"non-finite residuals for {', '.join(bad)}; "
                              "the operator or the weights overflow")
    detected = next(c for c in CLASS_ORDER
                    if all(residuals[k] <= TOL for k in CLASS_CONDITIONS[c]))
    violation = blocks.strict and detected not in ALLOWED_DETECTED[n]
    return ClassReport(
        residuals=residuals,
        detected=detected,
        config={
            "source": source, "component": component, "n": n,
            "t1": t1, "t2": t2, "seed": cfg.seed,
            "num_points": SAMPLE[0], "num_arg_triples": SAMPLE[1],
            "tol": TOL,
        },
        flags={"strict": blocks.strict, "possible_class_violation": violation},
    )


# --- theorem suite -------------------------------------------------------------

NEGATIVE_MIN = 1e-3
KAHLER_MIN = 0.1

THEOREM_STATEMENTS = {
    "4.2a": "structures 1,2 on ++ are never Kaehler",
    "4.2b": "structures 1,2 on +- are Kaehler iff R = (s/12)Id on the self-dual half, "
            "zero on the anti-self-dual half, s > 0 and t1 = 6/s",
    "4.3a": "structures 1,2 on ++ are Hermitian semi-Kaehler (W3) iff W+ = 0 and s = 0",
    "4.3b": "structures 1,2 on +- are W3 iff W+ = 0 and B = 0 "
            "(the B = 0 requirement is forced by the codifferential formula)",
    "4.4a": "structures 3,4 on ++ are semi-Kaehler iff W+ = 0 and s = 0",
    "4.4b": "structures 3,4 on +- are semi-Kaehler iff W+ = 0 and B = 0 "
            "(the B = 0 requirement is forced by the codifferential formula)",
    "4.5a": "structures 3,4 on ++ are quasi-Kaehler iff W+ = 0, B = 0, s = 0",
    "4.5b": "structures 3,4 on +- are quasi-Kaehler iff B = 0, W+ = 0 and "
            "R annihilates the anti-self-dual half",
    "4.6a": "structures 3,4 on ++ are never W1+W3",
    "4.6b": "structures 3,4 on +- are W1+W3 iff Einstein anti-self-dual with s > 0 and t1 = 3/s",
    "4.7a": "structures 3,4 on ++ are never W2+W3",
    "4.7b": "structures 3,4 on +- are W2+W3 iff Einstein anti-self-dual with s < 0 and t1 = -6/s",
    "4.8a": "structures 3,4 on ++ are never nearly-Kaehler (W1)",
    "4.8b": "structures 3,4 on +- are W1 iff Einstein anti-self-dual, s > 0, "
            "R annihilates the anti-self-dual half and t1 = 3/s",
    "4.9a": "structures 3,4 on ++ are never almost-Kaehler (W2)",
    "4.9b": "structures 3,4 on +- are W2 iff Einstein anti-self-dual, s < 0, "
            "R annihilates the anti-self-dual half and t1 = -6/s",
}

THEOREM_IDS = tuple(THEOREM_STATEMENTS)


@dataclass
class TheoremResult:
    tid: str
    statement: str
    passed: bool
    checks: list[dict]

    def to_json_dict(self) -> dict:
        return {"id": self.tid, "statement": self.statement,
                "passed": self.passed, "checks": self.checks}


class _Recorder:
    """Checks of one statement, with its stream and its first draws; witnesses
    are sampled on ``SAMPLE`` and violations on ``REDUCED_SAMPLE``.  Names recur
    on every run, so they are interned."""

    def __init__(self, tid: str, cfg: SamplingConfig):
        self.rng = np.random.default_rng([cfg.seed, THEOREM_IDS.index(tid)])
        self.cfg = cfg
        self.t2 = float(self.rng.uniform(0.5, 1.5))
        self.wm = curvature.random_traceless_symmetric(self.rng, scale=0.7)
        self.checks: list[dict] = []

    def le(self, name: str, value: float, bound: float = TOL) -> None:
        self.checks.append({"name": sys.intern(name), "value": float(value), "bound": bound,
                            "require": "<=", "ok": bool(value <= bound)})

    def gt(self, name: str, value: float, bound: float = NEGATIVE_MIN) -> None:
        self.checks.append({"name": sys.intern(name), "value": float(value), "bound": bound,
                            "require": ">", "ok": bool(value > bound)})

    def holds(self, label: str, rmat, component: str, t, ns, conds, tags=None) -> None:
        """``<=`` checks ``{label}/n={n}/{tag}`` of ``conds`` on the full sample, one
        ``condition_residuals`` call per structure n; the tags default to ``conds``."""
        for n in ns:
            res = condition_residuals(rmat, component, t, n, self.cfg, conditions=conds)
            for c, tag in zip(conds, tags or conds):
                self.le(f"{label}/n={n}/{tag}", res[c])

    def fails(self, name: str, cond: str, rmat, component: str, t, n: int,
              bound: float = NEGATIVE_MIN) -> None:
        """A ``>`` check of one residual on the reduced sample."""
        self.gt(name, condition_residuals(rmat, component, t, n, self.cfg, (cond,),
                                          REDUCED_SAMPLE)[cond], bound)

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)


def _counterexample_point() -> ProductTwistorPoint:
    j1 = OrientedComplexStructure4([1.0, 0.0, 0.0], 1)   # structure of sqrt2 s1+
    j2 = OrientedComplexStructure4([0.0, 1.0, 0.0], 1)   # structure of sqrt2 s2+
    return ProductTwistorPoint(j1, j2)


def verify_theorem(tid: str, cfg: SamplingConfig) -> TheoremResult:
    if tid not in THEOREM_IDS:
        raise ClassifierError(f"unknown theorem id {tid!r}; known: {', '.join(THEOREM_IDS)}")
    if not isinstance(cfg, SamplingConfig):
        raise ClassifierError(f"cfg must be a SamplingConfig, got {cfg!r}")
    rec = _Recorder(tid, cfg)
    t2, wm = rec.t2, rec.wm

    if tid == "4.2a":
        const12 = curvature.model("constant_curvature", s=12.0)
        for label, rmat in (("flat", curvature.model("flat")), ("const12", const12)):
            for n in (1, 2):
                rec.fails(f"{label}/n={n}/D-residual", _DOM, rmat, "++", (1.0, 1.0), n,
                          KAHLER_MIN)
        # explicit witness configuration: J = (s1+, s2+), V = (0, s1+), X = e1, Y = e3;
        # J2's basis rows are (-s1+, s3+), so V = -E_6 at t2 = 1, X = E_0 and Y = E_2
        T, _ = tensors.frame_tensor(_counterexample_point(), const12, Params(1.0, 1.0, 1))
        rec.gt("pointwise-counterexample", abs(T[6, 0, 2]), KAHLER_MIN)

    elif tid == "4.2b":
        for s in (12.0, 3.7):
            rmat = curvature.model("kaehler_witness", s=s)
            t = (6.0 / s, t2)
            rec.holds(f"s={s}", rmat, "+-", t, (1, 2), (_DOM,), ("D-residual",))
            rec.fails(f"s={s}/t1-off/D-residual", _DOM, rmat, "+-", (1.1 * 6.0 / s, t2), 1)
            for kind in ("Wplus", "B"):
                rec.fails(f"s={s}/{kind}-noise/D-residual", _DOM,
                          curvature.perturbed(rmat, kind, rec.rng), "+-", t, 1)

    elif tid in ("4.3a", "4.4a"):
        ns = (1, 2) if tid == "4.3a" else (3, 4)
        conds = (_NIJ, _DELTA) if tid == "4.3a" else (_DELTA,)
        rec.holds("flat", curvature.model("flat"), "++", (1.0, t2), ns, conds)
        rmat = curvature.model("asd_general", s=0.0, B=rec.rng.standard_normal((3, 3)),
                               Wminus=wm)
        rec.holds("scalar-flat-asd", rmat, "++", (1.0, t2), ns, conds)
        rec.fails("s-shift/delta-residual", _DELTA,
                  curvature.model("constant_curvature", s=12.0), "++", (1.0, t2), ns[0])

    elif tid in ("4.3b", "4.4b"):
        ns = (1, 2) if tid == "4.3b" else (3, 4)
        conds = (_NIJ, _DELTA) if tid == "4.3b" else (_DELTA,)
        rmat = curvature.model("einstein_asd", s=5.2, Wminus=wm)
        t = (0.8, t2)
        rec.holds("einstein-asd", rmat, "+-", t, ns, conds)
        for kind in ("Wplus", "B"):
            rec.fails(f"{kind}-noise/delta-residual", _DELTA,
                      curvature.perturbed(rmat, kind, rec.rng), "+-", t, ns[0])

    elif tid == "4.5a":
        rmat = curvature.model("asd_ricci_flat", Wminus=wm)
        t = (0.8, t2)
        rec.holds("ricci-flat-asd", rmat, "++", t, (3, 4), (_QUASI,), ("quasi",))
        rec.fails("s-shift/quasi", _QUASI, curvature.model("einstein_asd", s=4.0, Wminus=wm),
                  "++", t, 3)
        rec.fails("B-noise/quasi", _QUASI, curvature.perturbed(rmat, "B", rec.rng), "++", t, 3)

    elif tid == "4.5b":
        s = 9.0
        rmat = curvature.model("einstein_asd", s=s, Wminus=-(s / 12.0) * np.eye(3))
        t = (0.8, t2)
        rec.holds("annihilating", rmat, "+-", t, (3, 4), (_QUASI,), ("quasi",))
        rec.fails("generic-Wminus/quasi", _QUASI, curvature.model("einstein_asd", s=s, Wminus=wm),
                  "+-", t, 3)
        rec.fails("Wplus-noise/quasi", _QUASI, curvature.perturbed(rmat, "Wplus", rec.rng),
                  "+-", t, 3)

    elif tid in ("4.6a", "4.7a"):
        s = 12.0 if tid == "4.6a" else -12.0
        rmat = curvature.model("constant_curvature", s=s)
        t = (3.0 / s if tid == "4.6a" else -6.0 / s, t2)
        for n in (3, 4):
            rec.fails(f"const/n={n}/delta-residual", _DELTA, rmat, "++", t, n)
        if tid == "4.6a":
            # delta Omega(V) = -sum_a T[a, a, 7] at J = (s1+, s2+) against V = (0, s3+),
            # which is E_7 at t2 = 1: J2 V2 is parallel to J1
            T, _ = tensors.frame_tensor(_counterexample_point(), rmat, Params(t[0], 1.0, 3))
            rec.gt("pointwise-counterexample", abs(np.trace(T)[7]))

    elif tid in ("4.6b", "4.7b"):
        cond = _W13 if tid == "4.6b" else _W23
        for s in (12.0, 5.0) if tid == "4.6b" else (-12.0, -5.5):
            t1 = 3.0 / s if tid == "4.6b" else -6.0 / s
            const = curvature.model("constant_curvature", s=s)
            for label, rmat in (("const", const),
                                ("einstein", curvature.model("einstein_asd", s=s, Wminus=wm))):
                rec.holds(f"s={s}/{label}", rmat, "+-", (t1, t2), (3, 4), (cond, _DELTA))
            rec.fails(f"s={s}/t1-off/{cond}", cond, const, "+-", (1.1 * t1, t2), 3)
            rec.fails(f"s={s}/B-noise/delta", _DELTA, curvature.perturbed(const, "B", rec.rng),
                      "+-", (t1, t2), 3)

    elif tid in ("4.8a", "4.9a"):
        s = 12.0 if tid == "4.8a" else -12.0
        name = "w1_witness" if tid == "4.8a" else "w2_witness"
        cond = _W1 if tid == "4.8a" else _DEXT
        rmat = curvature.model(name, s=s)
        t1 = 3.0 / s if tid == "4.8a" else -6.0 / s
        for n in (3, 4):
            rec.fails(f"{name}/n={n}/{cond}", cond, rmat, "++", (t1, t2), n)

    else:  # 4.8b, 4.9b
        name = "w1_witness" if tid == "4.8b" else "w2_witness"
        cond = _W1 if tid == "4.8b" else _DEXT
        for s in (12.0, 5.0) if tid == "4.8b" else (-12.0, -7.0):
            t1 = 3.0 / s if tid == "4.8b" else -6.0 / s
            rmat = curvature.model(name, s=s)
            rec.holds(f"s={s}", rmat, "+-", (t1, t2), (3, 4), (cond,))
            rec.fails(f"s={s}/t1-off/{cond}", cond, rmat, "+-", (1.1 * t1, t2), 3)
            rec.fails(f"s={s}/generic-Wminus/{cond}", cond,
                      curvature.model("einstein_asd", s=s, Wminus=wm), "+-", (t1, t2), 3)

    return TheoremResult(tid=tid, statement=THEOREM_STATEMENTS[tid],
                         passed=rec.passed, checks=rec.checks)


def verify_all(cfg: SamplingConfig) -> list[TheoremResult]:
    return [verify_theorem(tid, cfg) for tid in THEOREM_IDS]


def verify_report_json(results: list[TheoremResult]) -> str:
    doc = {
        "schema": "gh-verify-report/1",
        "results": [r.to_json_dict() for r in results],
        "summary": {
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
            "failed_ids": [r.tid for r in results if not r.passed],
        },
    }
    return json.dumps(doc, indent=2) + "\n"
