"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json

import numpy as np
import pytest

from twistorgh import cli
from twistorgh import classifier as cl
from twistorgh import curvature as cur
from twistorgh import fibre, fourdim as fd, selftest, tensors as tn

from random_fourdim import make_S_basis
from reference import acs, metric_Ht

SEED = 7
VERIFY_CFG = cl.SamplingConfig(seed=SEED)

POSITIVE_IDS = ("4.2b", "4.3a", "4.3b", "4.4a", "4.4b", "4.5a", "4.5b",
                "4.6b", "4.7b", "4.8b", "4.9b")
NEGATIVE_IDS = ("4.2a", "4.6a", "4.7a", "4.8a", "4.9a")


@pytest.fixture(scope="module")
def verify_results():
    return {r.tid: r for r in cl.verify_all(VERIFY_CFG)}


def announce(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def random_symmetric_operator(rng, scale=1.0):
    m = rng.standard_normal((6, 6))
    return scale * 0.5 * (m + m.T)


def test_criterion_1_internal_consistency_oracles():
    # each configuration is drawn in turn from the stream, as one at a time;
    # the 500 of a (component, n) are then evaluated stacked by the residuals
    # of the self-test's tensor oracles
    worst = dict.fromkeys(("ext-deriv-antisymmetrization", "codiff-frame-trace",
                           "nijenhuis-identity", "restriction"), 0.0)
    for component in ("++", "+-"):
        for n in (1, 2, 3, 4):
            rng = np.random.default_rng([SEED, 1, 1 if component == "++" else 2, n])
            t, rmat = np.empty((500, 2)), np.empty((500, 6, 6))
            rows, coeffs = np.empty((500, 6)), np.empty((500, 3, 8))
            for i in range(500):
                t[i] = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
                rmat[i] = random_symmetric_operator(rng)
                rows[i] = rng.standard_normal(6)  # the point's draw, as in classify
                coeffs[i] = rng.standard_normal((3, 8))
            p, params = cl._points(rows, component), tn.Params(t[:, 0], t[:, 1], n)
            for kind in worst:
                res = selftest._group_residuals(kind, p, rmat, params, coeffs)
                # np.maximum keeps a NaN that the builtin max would drop
                worst[kind] = float(np.maximum(worst[kind], np.max(res)))
    ok = all(w <= 1e-10 for w in worst.values())
    announce(1, ok, "internal-consistency oracles over 500 configs per "
                    f"(component, n): worst residuals {worst}")


def test_criterion_2_curvature_commutator_identity():
    result = selftest._oracle("curvature-commutator", SEED, 1000)
    announce(2, result.ok and result.max_residual <= 1e-10,
             f"commutator coupling identity over 1000 draws: worst {result.max_residual:.3e}")


def test_criterion_3_fibre_kaehler_parallelism():
    # 20 trials per fibre dimension, 4 and 6
    result = selftest._oracle("fibre-kaehler-parallel", SEED, 40)
    announce(3, result.ok and result.max_residual <= 1e-6,
             "fibre Kaehler parallelism with finite-difference fields: "
             f"worst {result.max_residual:.3e}")


def test_criterion_4_theorem_suite_positive_directions(verify_results):
    failing = []
    for tid in POSITIVE_IDS:
        result = verify_results[tid]
        bad = [c for c in result.checks if c["require"] == "<=" and not c["ok"]]
        if bad or not result.passed:
            failing.append((tid, bad))
    announce(4, not failing,
             f"positive directions of {', '.join(POSITIVE_IDS)} at tolerance 1e-9"
             + (f"; failing: {failing}" if failing else ""))


def test_criterion_5_theorem_suite_negative_directions(verify_results):
    failing = []
    for tid in NEGATIVE_IDS:
        if not verify_results[tid].passed:
            failing.append(tid)
    for tid, result in verify_results.items():
        for c in result.checks:
            if c["require"] == ">" and not c["ok"]:
                failing.append((tid, c["name"]))
    announce(5, not failing,
             "impossibility statements and hypothesis perturbations exceed their bounds"
             + (f"; failing: {failing}" if failing else ""))


def test_criterion_6_possible_class_corollaries():
    rng = np.random.default_rng([SEED, 6])
    cfg = cl.SamplingConfig(seed=SEED)
    seen = []
    for _ in range(10):
        rmat = cur.random_strict_operator(rng)
        t = (float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)))
        for n, component in ((1, "++"), (2, "+-"), (3, "++"), (4, "+-")):
            report = cl.classify(rmat, component, t, n, cfg)
            seen.append((n, report.detected))
            if report.detected not in cl.ALLOWED_DETECTED[n]:
                announce(6, False, f"detected {report.detected} for n={n} is impossible")
    announce(6, True, "detected classes of 10 random strict operators stay in the "
                      f"possible sets for every n (saw {sorted(set(seen))})")


def test_criterion_7_determinism(tmp_path):
    args = ["classify", "--model", "constant_curvature", "--s", "12",
            "--component", "+-", "--n", "3", "--t1", "0.25", "--seed", "5"]
    f1, f2 = tmp_path / "one.json", tmp_path / "two.json"
    assert cli.main(args + ["--output", str(f1)]) == 0
    assert cli.main(args + ["--output", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()
    detected = json.loads(f1.read_text())["detected"]
    announce(7, identical and detected == "W1W3",
             f"repeated cmd_classify runs are byte-identical (detected {detected})")


def test_criterion_8_algebraic_invariants():
    rng = np.random.default_rng([SEED, 8])
    worst = {"acs_square": 0.0, "compat": 0.0, "omega_antisym": 0.0,
             "frame_M_square": 0.0, "frame_M_orthogonal": 0.0,
             "s_basis": 0.0, "cross_commutator": 0.0, "isometry": 0.0}

    for dim in (4, 6):
        basis = make_S_basis(dim)
        gram = np.array([[fibre.inner_G(u, v) for v in basis] for u in basis])
        worst["s_basis"] = max(worst["s_basis"],
                               float(np.max(np.abs(gram - np.eye(len(basis))))))

    for i in range(100):
        component = ("++", "+-", "-+", "--")[i % 4]
        n = 1 + i % 4
        params = tn.Params(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)), n)
        p = cl._points(rng.standard_normal(6), component)
        a, b = (tn.frame_vectors(p, params, rng.standard_normal(8)) for _ in range(2))

        twice = acs(p, acs(p, a, params), params)
        worst["acs_square"] = max(
            worst["acs_square"],
            float(np.max(np.abs(twice.horizontal + a.horizontal))),
            float(np.max(np.abs(twice.v1 + a.v1))),
            float(np.max(np.abs(twice.v2 + a.v2))))

        worst["compat"] = max(worst["compat"], abs(
            metric_Ht(p, acs(p, a, params), acs(p, b, params), params)
            - metric_Ht(p, a, b, params)))

        # Omega(A, B) = H_t(Jn A, B)
        worst["omega_antisym"] = max(worst["omega_antisym"], abs(
            metric_Ht(p, acs(p, a, params), b, params)
            + metric_Ht(p, acs(p, b, params), a, params)))

        # Jn in the frame, as the classifier's contractions read it
        _, m = tn.frame_tensor(p, cur.model("flat"), params)
        worst["frame_M_square"] = max(worst["frame_M_square"],
                                      float(np.max(np.abs(m @ m + np.eye(8)))))
        worst["frame_M_orthogonal"] = max(worst["frame_M_orthogonal"],
                                          float(np.max(np.abs(m.T @ m - np.eye(8)))))

        sign = 1 if i % 2 == 0 else -1
        u3, v3 = rng.standard_normal(3), rng.standard_normal(3)
        ku = fd.endo_of_two_vector(fd.embed_half(u3, sign))
        kv = fd.endo_of_two_vector(fd.embed_half(v3, sign))
        bracket = fd.two_vector_of_endo(sign / np.sqrt(2.0) * (ku @ kv - kv @ ku))
        cross = fd.embed_half(np.cross(u3, v3), sign)
        worst["cross_commutator"] = max(worst["cross_commutator"],
                                        float(np.max(np.abs(bracket - cross))))

        q = rng.standard_normal((4, 4))
        skew = 0.5 * (q - q.T)
        worst["isometry"] = max(worst["isometry"], float(abs(
            np.sqrt(fibre.inner_G(skew, skew))
            - np.linalg.norm(fd.two_vector_of_endo(skew)))))

    ok = max(worst.values()) <= 1e-10
    announce(8, ok, f"algebraic invariants over 100 draws: worst residuals {worst}")
