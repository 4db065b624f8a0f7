"""The classical single twistor space inside the product: its Nijenhuis tensor.

On first-factor arguments, the coefficients of E_0..E_5, the product structure
Jn acts as the structure J1 (n = 1, 2) or J2 (n = 3, 4) of the twistor space of
the first factor with metric g + t1 G; the restriction oracle ties the product
tensors there to the single-fibre forms.  So the classifier's N tensor,
restricted to the frame indices 0:6, is the Nijenhuis tensor of that single
twistor space, and its delta Omega there is the codifferential of that
space: the frame tensor vanishes on (E_6 or E_7, E_6 or E_7, E_0..E_5), so
the trace over all eight frame vectors is the trace over E_0..E_5.  Three
statements pin the two:

- J1 is integrable exactly when the Weyl half of the first factor's
  orientation vanishes (Atiyah, Hitchin and Singer, 1978): W+ on the
  components ++ and +-, W- on -+ and --;
- J2 is never integrable (Eells and Salamon, 1985), flat R included;
- J1 and J2 are balanced (delta Omega = 0) exactly when that Weyl half
  vanishes, flat R included.  For J1 this is Michelsohn's (Acta Math. 149,
  1982): the twistor space of a half-conformally-flat manifold is balanced;
  for J2 it is the class W1+W2+W3 of the single twistor space's class table.

The rest of that class table is pinned for Einstein operators (B = 0) whose
Weyl half of the first factor's orientation vanishes: J1 is Kaehler exactly at
t1 s = 6 (Friedrich and Kurke, 1982; Hitchin, 1981), and J2 is never Kaehler,
always quasi-Kaehler, nearly Kaehler (W1) at t1 s = 3 and almost Kaehler (W2)
at t1 s = -6 (Muskarov, 1987).  Noise in B or in that Weyl half leaves every
class.

Each product class lies inside its first factor's single class: on every
reference row of perfbench/reference.json, and on random members of the cell
of each "iff" statement of the suite, the conditions of the class vanish on the
first-factor indices, so a failure locates a bug in the restriction.

The restriction does not depend on u2, so u1 runs over the 12 vertices of an
icosahedron at one fixed u2.
"""

import numpy as np
import pytest

from twistorgh import classifier as cl
from twistorgh import curvature as cur
from twistorgh import tensors as tn

from gray_hervella import ICOSAHEDRON
from test_reference_survey import _reference, _workloads

U2 = np.array([0.3, -0.5, 0.8])
#: normals of W+ and W- in a row of ``curvature.strict_operators``
WEYL_NORMALS = {1: slice(10, 19), -1: slice(19, 28)}

TRIALS = 20
VANISH_REL = 1e-12
NONZERO_MIN = 1e-3


def single(cond, rmat, component, t, n):
    """max |Q| of the classifier's tensor Q of ``cond`` over the first-factor frame
    indices (< 6) of each slot and the 12 icosahedron points."""
    rows = np.concatenate((ICOSAHEDRON, np.broadcast_to(U2, (12, 3))), axis=1)
    T, M = tn.frame_tensor(cl._points(rows, component), rmat, tn.Params(t[0], t[1], n))
    (_, q), = cl._condition_tensors(T, M, (cond,))
    if cl._SLOTS[cond][:2] == (cl._A, cl._A):  # on (A, A, C) only Q's symmetric part counts
        q = 0.5 * (q + np.swapaxes(q, -3, -2))
    return float(np.abs(q[(slice(None),) + (slice(6),) * (q.ndim - 1)]).max())


def operators(component, rng):
    """Random weights and strict operators: (t, kind, R) for a generic operator, one
    whose Weyl half of the first factor's orientation (W_same) is zero, one whose
    other half is zero, and the flat operator."""
    same = 1 if component[0] == "+" else -1
    for _ in range(TRIALS):
        t = rng.uniform(0.3, 2.0, 2)
        z = rng.standard_normal(cur.STRICT_NORMALS)
        no_same, no_other = z.copy(), z.copy()
        no_same[WEYL_NORMALS[same]] = 0.0
        no_other[WEYL_NORMALS[-same]] = 0.0
        yield t, "generic", cur.strict_operators(z)
        yield t, "W_same=0", cur.strict_operators(no_same)
        yield t, "W_other=0", cur.strict_operators(no_other)
        yield t, "flat", np.zeros((6, 6))


#: the class-table conditions that vanish for an Einstein operator with W_same = 0,
#: by single structure (1 for J1, 2 for J2) and t1 s
CLASS_TABLE = {
    (1, 6.0): {"DΩ", "W1-cond", "dΩ", "quasi-cond"}, (1, 3.0): set(), (1, -6.0): set(),
    (2, 6.0): {"quasi-cond"}, (2, 3.0): {"W1-cond", "quasi-cond"},
    (2, -6.0): {"dΩ", "quasi-cond"},
}


def einstein_operators(component, s, rng):
    """(kind, R): an Einstein operator of scalar part s with W_same = 0 and a random
    other Weyl half, and the same with noise in B or in W_same.  They are built with
    W+ as W_same and half-swapped when the first factor's orientation is negative."""
    rmat = cur.compose(s, Wminus=cur.random_traceless_symmetric(rng))
    ops = (("einstein", rmat), ("B-noise", cur.perturbed(rmat, "B", rng)),
           ("W_same-noise", cur.perturbed(rmat, "Wplus", rng)))
    return [(kind, r if component[0] == "+" else cur.swap_halves(r)) for kind, r in ops]


def test_icosahedron_vertices_are_unit_and_distinct():
    assert ICOSAHEDRON.shape == (12, 3)
    assert np.allclose(np.linalg.norm(ICOSAHEDRON, axis=1), 1.0, rtol=0, atol=1e-15)
    # each vertex: its antipode, five vertices at cos = -1/sqrt5, five at 1/sqrt5, itself
    cosines = np.repeat([-1.0, -5 ** -0.5, 5 ** -0.5, 1.0], [1, 5, 5, 1])
    assert np.allclose(np.sort(ICOSAHEDRON @ ICOSAHEDRON.T, axis=1), cosines, rtol=0, atol=1e-15)


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2])
def test_j1_is_integrable_exactly_when_the_same_weyl_half_vanishes(component, n):
    rng = np.random.default_rng([70, n, cl.COMPONENTS.index(component)])
    for t, kind, rmat in operators(component, rng):
        value = single("N", rmat, component, t, n)
        if kind in ("W_same=0", "flat"):
            assert value <= VANISH_REL * max(1.0, np.abs(rmat).max()), (kind, t, value)
        else:
            assert value > NONZERO_MIN, (kind, t, value)


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [3, 4])
def test_j2_is_never_integrable(component, n):
    rng = np.random.default_rng([71, n, cl.COMPONENTS.index(component)])
    for t, kind, rmat in operators(component, rng):
        value = single("N", rmat, component, t, n)
        assert value > NONZERO_MIN, (kind, t, value)


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_balanced_exactly_when_the_same_weyl_half_vanishes(component, n):
    rng = np.random.default_rng([72, n, cl.COMPONENTS.index(component)])
    for t, kind, rmat in operators(component, rng):
        value = single("δΩ", rmat, component, t, n)
        if kind in ("W_same=0", "flat"):
            assert value <= VANISH_REL * max(1.0, np.abs(rmat).max()), (kind, t, value)
        else:
            assert value > NONZERO_MIN, (kind, t, value)


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_einstein_operators_follow_the_class_table(component, n):
    rng = np.random.default_rng([73, n, cl.COMPONENTS.index(component)])
    for s in (12.0, 5.0, -12.0):
        for ts in (6.0, 3.0) if s > 0 else (-6.0,):
            t = (ts / s, rng.uniform(0.3, 2.0))
            vanishing = CLASS_TABLE[(1 if n < 3 else 2, ts)]
            for kind, rmat in einstein_operators(component, s, rng):
                for cond in ("DΩ", "W1-cond", "dΩ", "quasi-cond"):
                    value = single(cond, rmat, component, t, n)
                    if kind == "einstein" and cond in vanishing:
                        assert value <= VANISH_REL * max(1.0, np.abs(rmat).max()), \
                            (kind, s, ts, cond, value)
                    else:
                        assert value > NONZERO_MIN, (kind, s, ts, cond, value)


def assert_in_single_class(cls, rmat, component, t, n, label):
    for cond in cl.CLASS_CONDITIONS[cls]:
        value = single(cond, rmat, component, t, n)
        assert value <= VANISH_REL * max(1.0, np.abs(rmat).max()), (label, cond, value)


def test_every_product_class_lies_in_its_single_class():
    workloads = _workloads()
    rows = [row for row in _reference()["classify"]["rows"] if row["detected"] != "OTHER"]
    assert len(rows) == 224
    for row in rows:
        assert_in_single_class(row["detected"], workloads.build_operator(cur, row),
                               row["component"], (row["t1"], row["t2"]), row["n"], row["id"])


#: the cells of the suite's "iff" statements: component, structures, class, the
#: sign of s (0 for s = 0, None for either sign), t1 s (None where t1 is free), and
#: the blocks of R besides (s/12) Id: "W-" a random traceless W-, "B+W-" also a
#: random B, "annihilate" W- = -(s/12) Id, so that R annihilates the
#: anti-self-dual half
IFF_CELLS = {
    "4.2b": ("+-", (1, 2), "K", 1, 6.0, "annihilate"),
    "4.3a": ("++", (1, 2), "W3", 0, None, "B+W-"),
    "4.3b": ("+-", (1, 2), "W3", None, None, "W-"),
    "4.4a": ("++", (3, 4), "W1W2W3", 0, None, "B+W-"),
    "4.4b": ("+-", (3, 4), "W1W2W3", None, None, "W-"),
    "4.5a": ("++", (3, 4), "W1W2", 0, None, "W-"),
    "4.5b": ("+-", (3, 4), "W1W2", None, None, "annihilate"),
    "4.6b": ("+-", (3, 4), "W1W3", 1, 3.0, "W-"),
    "4.7b": ("+-", (3, 4), "W2W3", -1, -6.0, "W-"),
    "4.8b": ("+-", (3, 4), "W1", 1, 3.0, "annihilate"),
    "4.9b": ("+-", (3, 4), "W2", -1, -6.0, "annihilate"),
}
CELL_DRAWS = 3


def cell_member(tid, rng):
    """(R, t) of a random member of the cell of statement ``tid`` (IFF_CELLS):
    |s| from [1, 12], t2 and a free t1 from [0.3, 2]."""
    _, _, _, sign, ts, blocks = IFF_CELLS[tid]
    s = (rng.choice((-1.0, 1.0)) if sign is None else sign) * rng.uniform(1.0, 12.0)
    b = rng.standard_normal((3, 3)) if blocks == "B+W-" else None
    wm = (-(s / 12.0) * np.eye(3) if blocks == "annihilate"
          else cur.random_traceless_symmetric(rng))
    t1 = rng.uniform(0.3, 2.0) if ts is None else ts / s
    return cur.compose(s, B=b, Wminus=wm), (t1, rng.uniform(0.3, 2.0))


@pytest.mark.parametrize("tid", IFF_CELLS)
def test_every_statement_cell_lies_in_its_single_class(tid):
    # on the statement's component and on its orientation reversal, the swap_halves
    # image; each draw is first checked to lie in the cell
    component, ns, cls = IFF_CELLS[tid][:3]
    reversed_component = component.translate(str.maketrans("+-", "-+"))
    rng = np.random.default_rng([74, cl.THEOREM_IDS.index(tid)])
    for draw in range(CELL_DRAWS):
        rmat, t = cell_member(tid, rng)
        for comp, r in ((component, rmat), (reversed_component, cur.swap_halves(rmat))):
            for n in ns:
                label = (tid, draw, comp, n)
                residuals = cl.condition_residuals(r, comp, t, n, cl.SamplingConfig(),
                                                   cl.CLASS_CONDITIONS[cls])
                assert max(residuals.values()) <= cl.TOL, (label, residuals)
                assert_in_single_class(cls, r, comp, t, n, label)
