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

Points are evaluated in blocks of ``BLOCK_POINTS``: one draw gives the
block's sphere points and coefficient triples, the structures, vertical
bases and frames are built stacked, one ``frame_tensor`` call gives the
stacked T[p, a, b, c] and M[p, b, a] of the block, and one
``condition_values`` call contracts every condition over the block.  It
forms the J-twists tj and tjj at most once for all conditions, and drops tj
once N and tjj are formed.  The (A, B, C) conditions share one outer product
X (x) Y of the block's arguments, and the (A, A, C) conditions share X (x) X,
formed after the first is dropped; each condition is then one matmul of its
outer product against Q, seen as (64, 8), and one dot with Z, while delta
Omega is one matvec.  Each block's sup is one stacked abs, divide and max over
the requested conditions.  The point functions (``_points``,
``fourdim.vertical_basis``, ``tensors.frame_at_point``) take one point or a
stack with the same code.

Raw residuals are divided by (1 + product of argument norms) so tolerances
are scale-free, and a single violating sample fails a class (sup, not mean).
The detected class is the smallest lattice element whose conditions all pass.

The theorem suite (ids 4.2a .. 4.9b) checks each classification statement in
both directions: the witness operator satisfies the class conditions at
tolerance 1e-9, and perturbing any hypothesis (extra self-dual Weyl part,
extra traceless-Ricci block, scalar shift, 10% shift of t1) pushes a
residual above 1e-3.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import curvature, tensors
from .fourdim import S_BASIS_ENDOS, embed_half, sphere_to_J
from .tensors import Params, ProductTwistorPoint, gtangent

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

#: classes a strict operator can produce, by structure index
ALLOWED_DETECTED = {
    1: frozenset({"K", "W3", "OTHER"}),
    2: frozenset({"K", "W3", "OTHER"}),
    3: frozenset({"W1", "W2", "W1W2", "W1W3", "W2W3", "W1W2W3", "OTHER"}),
    4: frozenset({"W1", "W2", "W1W2", "W1W3", "W2W3", "W1W2W3", "OTHER"}),
}

COMPONENTS = ("++", "+-", "-+", "--")

#: points per block of ``condition_residuals``: one stacked frame tensor each.
#: 64-point blocks run about 9% faster (5.6 against 6.1 ms per default-config
#: classify, 2-vCPU VM, one BLAS thread) but peak at 2.6 MiB traced; 16 stay
#: under 1 MiB, at 0.81 MiB.
BLOCK_POINTS = 16


class ClassifierError(ValueError):
    """Unknown condition, component or theorem id."""


@dataclass(frozen=True)
class SamplingConfig:
    seed: int = 0
    num_points: int = 64
    num_arg_triples: int = 32
    tol: float = 1e-9

    def __post_init__(self):
        if self.seed < 0:
            raise ClassifierError(f"seed must be a non-negative integer, got {self.seed}")
        if self.num_points <= 0 or self.num_arg_triples <= 0:
            raise ClassifierError("sample counts must be positive")
        if not 0.0 < self.tol < np.inf:
            raise ClassifierError("tol must be positive and finite")


def component_signs(component: str) -> tuple[int, int]:
    if component not in COMPONENTS:
        raise ClassifierError(f"component must be one of {COMPONENTS}, got {component!r}")
    return (1 if component[0] == "+" else -1, 1 if component[1] == "+" else -1)


def _points(rows, component: str) -> ProductTwistorPoint:
    """The point(s) of sphere rows (u1, u2) = (rows[..., :3], rows[..., 3:6]),
    normalised; leading axes of ``rows`` give a stacked point."""
    s1, s2 = component_signs(component)
    u = rows[..., :6].reshape(rows.shape[:-1] + (2, 3))
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    u1, u2 = u[..., 0, :], u[..., 1, :]
    return ProductTwistorPoint(sphere_to_J(embed_half(u1, s1), s1),
                               sphere_to_J(embed_half(u2, s2), s2))


_A, _B, _C = range(3)
#: argument slots of each condition; they also pick the norms
_SLOTS = dict.fromkeys(CONDITIONS, (_A, _B, _C)) | {_W1: (_A, _A, _C), _W13: (_A, _A, _C),
                                                    _DELTA: (_A,)}


def _cyclic(q):
    """q[a, b, c] + q[b, c, a] + q[c, a, b] over the last three axes."""
    return q + np.moveaxis(q, -1, -3) + np.moveaxis(q, -3, -1)


_TWISTED = frozenset({_NIJ, _QUASI, _W13, _W23})  # built from T(JX, Y, Z)


def _nijenhuis(T, tj, mt):
    s = tj + mt[..., None, :, :] @ T  # T(JX, Y, Z) + T(X, JY, Z)
    return s - np.swapaxes(s, -3, -2)


def _condition_tensors(T, M, conditions):
    """(condition, Q) for each of ``conditions``: Q is the tensor over the condition's
    slots, linear in T, whose value is Q[a, b, c] X[a] Y[b] Z[c] for the slot
    arguments (X, Y, Z).  The (A, B, C) conditions come first, then (A, A, C), then
    delta Omega, so a consumer needs one argument outer product at a time.  The
    J-twists T(JX, Y, Z) and T(JX, JY, Z) are formed at most once, and T(JX, Y, Z)
    is dropped once N and T(JX, JY, Z) are."""
    want = set(conditions)
    if _DOM in want:
        yield _DOM, T
    if _DEXT in want:
        yield _DEXT, _cyclic(T)
    tjj = None
    if want & _TWISTED:
        mt = np.swapaxes(M, -1, -2)
        tj = (mt @ T.reshape(T.shape[:-2] + (64,))).reshape(T.shape)  # T(JX, Y, Z)
        if _NIJ in want:
            yield _NIJ, _nijenhuis(T, tj, mt)
        if want & (_TWISTED - {_NIJ}):
            tjj = mt[..., None, :, :] @ tj  # T(JX, JY, Z)
        del tj
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
                        conditions=CONDITIONS) -> dict[str, float]:
    """Sup of the normalized condition residuals over the seeded sample.

    The random stream depends only on the seed, never on the requested
    condition subset, so residuals agree between partial and full runs.
    Each point draws u1 (3 normals), u2 (3) and its coefficient triples
    (k, 3, 8) in turn; points are evaluated in blocks of ``BLOCK_POINTS``,
    which draw the same stream as one row of 6 + 24 k normals per point.
    """
    rmat = curvature.check_operator(rmat)
    for c in conditions:
        if c not in CONDITIONS:
            raise ClassifierError(f"unknown condition {c!r}; known: {CONDITIONS}")
    params = Params(float(t[0]), float(t[1]), n)
    rng = np.random.default_rng(cfg.seed)
    k = cfg.num_arg_triples
    slots = [_SLOTS[c] for c in conditions]
    if not slots:
        return {}
    sup = np.zeros(len(slots))

    for start in range(0, cfg.num_points, BLOCK_POINTS):
        rows = rng.standard_normal((min(BLOCK_POINTS, cfg.num_points - start), 6 + 24 * k))
        coeffs = rows[:, 6:].reshape(-1, k, 3, 8)
        T, M = tensors.frame_tensor(_points(rows, component), rmat, params)
        # the frame is H_t-orthonormal, so coefficient norms are H_t norms
        norms = np.linalg.norm(coeffs, axis=-1)
        nrm = {s: 1.0 + np.prod(norms[..., s], axis=-1) for s in set(slots)}
        vals = condition_values(T, M, coeffs, conditions)
        # np.maximum and np.max keep a NaN that the builtin max would drop
        sup = np.maximum(sup, np.max(np.abs(np.stack([vals[c] for c in conditions]))
                                     / np.stack([nrm[s] for s in slots]), axis=(1, 2)))
    return {c: float(v) for c, v in zip(conditions, sup)}


def residual(cond: str, rmat, component: str, t, n: int, cfg: SamplingConfig) -> float:
    """Sup of one normalized condition residual over the seeded sample."""
    return condition_residuals(rmat, component, t, n, cfg, conditions=(cond,))[cond]


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

    _CSV_CONFIG = ("source", "component", "n", "t1", "t2", "seed",
                   "num_points", "num_arg_triples", "tol")

    @classmethod
    def csv_header(cls) -> tuple[str, ...]:
        return (("detected",) + cls._CSV_CONFIG
                + ("strict", "possible_class_violation") + CONDITIONS)

    def csv_row(self) -> list[str]:
        cells = [self.detected]
        cells += [repr(self.config[k]) if isinstance(self.config[k], float)
                  else str(self.config[k]) for k in self._CSV_CONFIG]
        cells += [str(self.flags["strict"]), str(self.flags["possible_class_violation"])]
        cells += [repr(self.residuals[c]) for c in CONDITIONS]
        return cells

    def to_csv(self) -> str:
        """Header and row; a cell holding a comma, quote or newline is quoted."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.csv_header())
        writer.writerow(self.csv_row())
        return buf.getvalue()


def classify(rmat, component: str, t, n: int, cfg: SamplingConfig,
             source: str = "") -> ClassReport:
    """Full residual table plus the minimal passing class.

    For strict operators a detected class outside the possible set for the
    given n is flagged, not silenced.  A non-finite residual (the operator or
    the weights overflow) raises ClassifierError instead of passing every test.
    """
    blocks = curvature.decompose(rmat)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        residuals = condition_residuals(rmat, component, t, n, cfg)
    bad = [c for c, r in residuals.items() if not np.isfinite(r)]
    if bad:
        raise ClassifierError(f"non-finite residuals for {', '.join(bad)}; "
                              "the operator or the weights overflow")
    detected = next(c for c in CLASS_ORDER
                    if all(residuals[k] <= cfg.tol for k in CLASS_CONDITIONS[c]))
    violation = blocks.strict and detected not in ALLOWED_DETECTED[n]
    return ClassReport(
        residuals=residuals,
        detected=detected,
        config={
            "source": source, "component": component, "n": n,
            "t1": float(t[0]), "t2": float(t[1]), "seed": cfg.seed,
            "num_points": cfg.num_points, "num_arg_triples": cfg.num_arg_triples,
            "tol": cfg.tol,
        },
        flags={"strict": blocks.strict, "possible_class_violation": violation},
    )


# --- theorem suite -------------------------------------------------------------

POSITIVE_TOL = 1e-9
NEGATIVE_MIN = 1e-3
KAHLER_MIN = 0.1
PERTURBATION_REL = 0.1

THEOREM_IDS = ("4.2a", "4.2b", "4.3a", "4.3b", "4.4a", "4.4b", "4.5a", "4.5b",
               "4.6a", "4.6b", "4.7a", "4.7b", "4.8a", "4.8b", "4.9a", "4.9b")

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
    """Checks of one statement; names recur on every run, so they are interned."""

    def __init__(self):
        self.checks: list[dict] = []

    def le(self, name: str, value: float, bound: float = POSITIVE_TOL) -> None:
        self.checks.append({"name": sys.intern(name), "value": float(value), "bound": bound,
                            "require": "<=", "ok": bool(value <= bound)})

    def gt(self, name: str, value: float, bound: float = NEGATIVE_MIN) -> None:
        self.checks.append({"name": sys.intern(name), "value": float(value), "bound": bound,
                            "require": ">", "ok": bool(value > bound)})

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)


def _neg_cfg(cfg: SamplingConfig) -> SamplingConfig:
    # violations are dense, so a reduced sample is enough to exhibit one
    return replace(cfg, num_points=max(8, cfg.num_points // 4),
                   num_arg_triples=max(4, cfg.num_arg_triples // 4))


def _theorem_rng(cfg: SamplingConfig, tid: str):
    return np.random.default_rng([cfg.seed, THEOREM_IDS.index(tid)])


def _counterexample_point() -> ProductTwistorPoint:
    j1 = sphere_to_J(embed_half([1.0, 0.0, 0.0], 1), 1)   # structure of sqrt2 s1+
    j2 = sphere_to_J(embed_half([0.0, 1.0, 0.0], 1), 1)   # structure of sqrt2 s2+
    return ProductTwistorPoint(j1, j2)


def verify_theorem(tid: str, cfg: SamplingConfig) -> TheoremResult:
    if tid not in THEOREM_IDS:
        raise ClassifierError(f"unknown theorem id {tid!r}; known: {', '.join(THEOREM_IDS)}")
    rec = _Recorder()
    rng = _theorem_rng(cfg, tid)
    neg = _neg_cfg(cfg)
    t2 = float(rng.uniform(0.5, 1.5))
    wm = curvature.random_traceless_symmetric(rng, scale=0.7)

    if tid == "4.2a":
        for label, rmat in (("flat", curvature.model("flat")),
                            ("const12", curvature.model("constant_curvature", s=12.0))):
            for n in (1, 2):
                rec.gt(f"{label}/n={n}/D-residual",
                       residual(_DOM, rmat, "++", (1.0, 1.0), n, cfg), KAHLER_MIN)
        # explicit witness configuration: J = (s1+, s2+), V = (0, s1+), X = e1, Y = e3
        p = _counterexample_point()
        v = gtangent(v2=S_BASIS_ENDOS[0])
        x = gtangent(horizontal=[1.0, 0.0, 0.0, 0.0])
        y = gtangent(horizontal=[0.0, 0.0, 1.0, 0.0])
        val = tensors.cov_deriv_omega(p, curvature.model("constant_curvature", s=12.0),
                                      Params(1.0, 1.0, 1), v, x, y)
        rec.gt("pointwise-counterexample", abs(val), KAHLER_MIN)

    elif tid == "4.2b":
        for s in (12.0, 3.7):
            rmat = curvature.model("kaehler_witness", s=s)
            t = (6.0 / s, t2)
            for n in (1, 2):
                rec.le(f"s={s}/n={n}/D-residual", residual(_DOM, rmat, "+-", t, n, cfg))
            rec.gt(f"s={s}/t1-off/D-residual",
                   residual(_DOM, rmat, "+-", (1.1 * 6.0 / s, t2), 1, neg))
            rec.gt(f"s={s}/Wplus-noise/D-residual",
                   residual(_DOM, curvature.perturbed(rmat, "Wplus", rng, PERTURBATION_REL),
                            "+-", t, 1, neg))
            rec.gt(f"s={s}/B-noise/D-residual",
                   residual(_DOM, curvature.perturbed(rmat, "B", rng, PERTURBATION_REL),
                            "+-", t, 1, neg))

    elif tid in ("4.3a", "4.4a"):
        ns = (1, 2) if tid == "4.3a" else (3, 4)
        conds = (_NIJ, _DELTA) if tid == "4.3a" else (_DELTA,)
        witnesses = (("flat", curvature.model("flat")),
                     ("scalar-flat-asd",
                      curvature.model("asd_general", s=0.0,
                                      B=rng.standard_normal((3, 3)), Wminus=wm)))
        for label, rmat in witnesses:
            for n in ns:
                res = condition_residuals(rmat, "++", (1.0, t2), n, cfg, conditions=conds)
                for c in conds:
                    rec.le(f"{label}/n={n}/{c}", res[c])
        rec.gt("s-shift/delta-residual",
               residual(_DELTA, curvature.model("constant_curvature", s=12.0),
                        "++", (1.0, t2), ns[0], neg))

    elif tid in ("4.3b", "4.4b"):
        ns = (1, 2) if tid == "4.3b" else (3, 4)
        conds = (_NIJ, _DELTA) if tid == "4.3b" else (_DELTA,)
        rmat = curvature.model("einstein_asd", s=5.2, Wminus=wm)
        t = (0.8, t2)
        for n in ns:
            res = condition_residuals(rmat, "+-", t, n, cfg, conditions=conds)
            for c in conds:
                rec.le(f"einstein-asd/n={n}/{c}", res[c])
        rec.gt("Wplus-noise/delta-residual",
               residual(_DELTA, curvature.perturbed(rmat, "Wplus", rng, PERTURBATION_REL),
                        "+-", t, ns[0], neg))
        rec.gt("B-noise/delta-residual",
               residual(_DELTA, curvature.perturbed(rmat, "B", rng, PERTURBATION_REL),
                        "+-", t, ns[0], neg))

    elif tid == "4.5a":
        rmat = curvature.model("asd_ricci_flat", Wminus=wm)
        for n in (3, 4):
            rec.le(f"ricci-flat-asd/n={n}/quasi",
                   residual(_QUASI, rmat, "++", (0.8, t2), n, cfg))
        rec.gt("s-shift/quasi",
               residual(_QUASI, curvature.model("einstein_asd", s=4.0, Wminus=wm),
                        "++", (0.8, t2), 3, neg))
        rec.gt("B-noise/quasi",
               residual(_QUASI, curvature.perturbed(rmat, "B", rng, PERTURBATION_REL),
                        "++", (0.8, t2), 3, neg))

    elif tid == "4.5b":
        s = 9.0
        rmat = curvature.model("einstein_asd", s=s, Wminus=-(s / 12.0) * np.eye(3))
        for n in (3, 4):
            rec.le(f"annihilating/n={n}/quasi",
                   residual(_QUASI, rmat, "+-", (0.8, t2), n, cfg))
        rec.gt("generic-Wminus/quasi",
               residual(_QUASI, curvature.model("einstein_asd", s=s, Wminus=wm),
                        "+-", (0.8, t2), 3, neg))
        rec.gt("Wplus-noise/quasi",
               residual(_QUASI, curvature.perturbed(rmat, "Wplus", rng, PERTURBATION_REL),
                        "+-", (0.8, t2), 3, neg))

    elif tid in ("4.6a", "4.7a"):
        s = 12.0 if tid == "4.6a" else -12.0
        rmat = curvature.model("constant_curvature", s=s)
        t = (3.0 / s if tid == "4.6a" else -6.0 / s, t2)
        for n in (3, 4):
            rec.gt(f"const/n={n}/delta-residual", residual(_DELTA, rmat, "++", t, n, neg))
        if tid == "4.6a":
            # delta Omega at J = (s1+, s2+) against V = (0, s3+): J2 V2 is parallel to J1
            p = _counterexample_point()
            v = gtangent(v2=S_BASIS_ENDOS[2])
            val = tensors.codiff_omega(p, rmat, Params(t[0], 1.0, 3), v)
            rec.gt("pointwise-counterexample", abs(val))

    elif tid in ("4.6b", "4.7b"):
        s_vals = (12.0, 5.0) if tid == "4.6b" else (-12.0, -5.5)
        cond = _W13 if tid == "4.6b" else _W23
        for s in s_vals:
            t1 = 3.0 / s if tid == "4.6b" else -6.0 / s
            for label, rmat in (("const", curvature.model("constant_curvature", s=s)),
                                ("einstein", curvature.model("einstein_asd", s=s, Wminus=wm))):
                for n in (3, 4):
                    res = condition_residuals(rmat, "+-", (t1, t2), n, cfg,
                                              conditions=(cond, _DELTA))
                    rec.le(f"s={s}/{label}/n={n}/{cond}", res[cond])
                    rec.le(f"s={s}/{label}/n={n}/{_DELTA}", res[_DELTA])
            rmat = curvature.model("constant_curvature", s=s)
            rec.gt(f"s={s}/t1-off/{cond}",
                   residual(cond, rmat, "+-", (1.1 * t1, t2), 3, neg))
            rec.gt(f"s={s}/B-noise/delta",
                   residual(_DELTA, curvature.perturbed(rmat, "B", rng, PERTURBATION_REL),
                            "+-", (t1, t2), 3, neg))

    elif tid in ("4.8a", "4.9a"):
        s = 12.0 if tid == "4.8a" else -12.0
        name = "w1_witness" if tid == "4.8a" else "w2_witness"
        cond = _W1 if tid == "4.8a" else _DEXT
        rmat = curvature.model(name, s=s)
        t1 = 3.0 / s if tid == "4.8a" else -6.0 / s
        for n in (3, 4):
            rec.gt(f"{name}/n={n}/{cond}", residual(cond, rmat, "++", (t1, t2), n, neg))

    elif tid in ("4.8b", "4.9b"):
        s_vals = (12.0, 5.0) if tid == "4.8b" else (-12.0, -7.0)
        name = "w1_witness" if tid == "4.8b" else "w2_witness"
        cond = _W1 if tid == "4.8b" else _DEXT
        for s in s_vals:
            t1 = 3.0 / s if tid == "4.8b" else -6.0 / s
            rmat = curvature.model(name, s=s)
            for n in (3, 4):
                rec.le(f"s={s}/n={n}/{cond}", residual(cond, rmat, "+-", (t1, t2), n, cfg))
            rec.gt(f"s={s}/t1-off/{cond}",
                   residual(cond, rmat, "+-", (1.1 * t1, t2), 3, neg))
            rec.gt(f"s={s}/generic-Wminus/{cond}",
                   residual(cond, curvature.model("einstein_asd", s=s, Wminus=wm),
                            "+-", (t1, t2), 3, neg))

    else:  # pragma: no cover
        raise AssertionError(tid)

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
