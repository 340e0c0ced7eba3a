"""Acceptance suite.

Each test asserts one release criterion at its stated tolerance and prints
a PASS/FAIL line.  The expensive experiment matrix (300 s dataset, 5x5
maps, 6 cycles, 5 seeds) is computed once and shared by the ordering
criteria; run with ``pytest tests/test_acceptance.py -v -s`` to watch the
lines appear.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from posturemap.babble import BabbleConfig, generate_babble
from posturemap.codec import (
    CodecSpec,
    GaussianParams,
    LinearParams,
    SigmoidParams,
    build_codec,
    encode_dataset,
)
from posturemap.dataset import JointSpec
from posturemap.decode import KdeConfig, decode_matrix, kde_density
from posturemap.experiment import ExperimentConfig, demo_inconsistency, median_qe_angle, run_experiment
from posturemap.kinematics import ArmGeometry, joint_angle_from_length, muscle_length
from posturemap.metrics import evaluate_map
from posturemap.som import SomMap, TrainConfig, init_consistent, manifold_distance, sq_distances, train

FAMILIES = ("linear", "sigmoid", "gaussian")
COUNTS = (5, 10, 20)
RANGE_JOINT = (JointSpec("j", -40.0, 30.0),)


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except AssertionError:
        print(f"CRITERION {n:2d} FAIL - {description}")
        raise
    print(f"CRITERION {n:2d} PASS - {description}")


@pytest.fixture(scope="module")
def matrix_medians(tmp_path_factory):
    """Median qe_angle per (family, count): 300 s set, 5x5, 6 cycles, 5 seeds."""
    out = tmp_path_factory.mktemp("acceptance_matrix")
    cfg = ExperimentConfig(
        out_dir=str(out),
        babble_seed=42,
        duration_s=300.0,
        families=("normalized",) + FAMILIES,
        counts=COUNTS,
        rows=5,
        cols=5,
        cycles=6,
        shuffle=True,
        seeds=(0, 1, 2, 3, 4),
    )
    t0 = time.time()
    results = run_experiment(cfg)
    elapsed = time.time() - t0
    assert all(c.error is None for c in results), [c.error for c in results]
    print(f"[matrix: {len(results)} cells in {elapsed:.0f}s]")
    assert elapsed < 600.0, "experiment matrix exceeded the 10 minute budget"
    return median_qe_angle(results)


@pytest.fixture(scope="module")
def babble_matrix_60s():
    return generate_babble(BabbleConfig(seed=42, duration_s=60.0))


def test_criterion_1_population_coding_is_worse(matrix_medians):
    qn = matrix_medians[("normalized", None)]
    with criterion(1, "normalized inputs beat every population encoding variant"):
        for family in FAMILIES:
            for n in COUNTS:
                assert qn < matrix_medians[(family, n)], (
                    f"normalized {qn:.4f} !< {family} n={n} {matrix_medians[(family, n)]:.4f}"
                )


def test_criterion_2_more_curves_amplify_error(matrix_medians):
    with criterion(2, "per family, median qe_angle at n=20 exceeds n=5"):
        for family in FAMILIES:
            seq = [matrix_medians[(family, n)] for n in COUNTS]
            print(f"  {family}: qe_angle over n=5,10,20 = {[round(v, 4) for v in seq]}")
            assert seq[2] > seq[0], f"{family}: n=20 {seq[2]:.4f} !> n=5 {seq[0]:.4f}"


def test_criterion_3_nonlinear_curves_are_worse(matrix_medians):
    with criterion(3, "sigmoid and gaussian medians are >= linear at every count"):
        for n in COUNTS:
            lin = matrix_medians[("linear", n)]
            assert matrix_medians[("sigmoid", n)] >= lin
            assert matrix_medians[("gaussian", n)] >= lin


def test_criterion_4_single_update_drift():
    with criterion(4, "one alpha=0.5 update: gaussian drift > 1e-3, normalized < 1e-9"):
        gauss = demo_inconsistency("gaussian", -20.0, 10.0, count=10)
        assert gauss["manifold_drift"] > 1e-3
        norm = demo_inconsistency("normalized", -20.0, 10.0)
        assert norm["manifold_drift"] < 1e-9


def test_criterion_5_drift_grows_with_training(babble_matrix_60s):
    ds = babble_matrix_60s
    with criterion(5, "mean manifold distance after one cycle exceeds its init value"):
        for family in FAMILIES:
            codec = build_codec(CodecSpec(family, "fixed_count", 10), ds.joints)
            enc = encode_dataset(codec, ds)
            init_means, after_means = [], []
            for seed in range(10):
                som = init_consistent(5, 5, codec, seed=seed)
                trained, _ = train(som, enc, TrainConfig(cycles=1, seed=seed))
                init_means.append(manifold_distance(som).mean())
                after_means.append(manifold_distance(trained).mean())
            assert np.median(after_means) > np.median(init_means), family
            print(f"  {family}: init {np.median(init_means):.2e} -> "
                  f"one cycle {np.median(after_means):.4f}")


def test_criterion_6_decode_roundtrip():
    cfg = KdeConfig()
    with criterion(6, "decode(encode(x)) within 0.1 deg on 1000-angle sweeps; "
                      "analytic inverses within 1e-9"):
        joint = RANGE_JOINT[0]
        xs = joint.min_deg + (np.arange(1000) + 0.5) * joint.range_deg / 1000
        for family in FAMILIES:
            for n in COUNTS:
                codec = build_codec(CodecSpec(family, "fixed_count", n), RANGE_JOINT)
                decoded = decode_matrix(codec, codec.per_dof[0].activations(xs), cfg)[:, 0]
                for x, got in zip(xs, decoded):
                    assert abs(got - x) <= cfg.grid_resolution + 1e-12, (family, n, x, got)

        ys = np.linspace(0.002, 0.998, 400)
        a, b = 1.0 / 70.0, 40.0 / 70.0
        for y in ys:
            x = LinearParams.inverse(a, b, float(y))
            assert abs((a * x + b) - y) <= 1e-12
        for y in ys:
            x = SigmoidParams.inverse(-3.0, 1, float(y), gain=1.0)
            assert abs(1.0 / (1.0 + math.exp(-3.0 - x)) - y) <= 1e-9
        sigma = 70.0 / 9.0
        for y in np.linspace(0.001, 1.0, 400):
            for x in GaussianParams.inverse(-5.0, sigma, float(y)):
                assert abs(math.exp(-((x + 5.0) ** 2) / (2 * sigma**2)) - y) <= 1e-9


def test_criterion_7_muscle_length_suite():
    geom = ArmGeometry(0.30, 0.25)
    with criterion(7, "muscle length forward/inverse roundtrip 1e-9 and monotone"):
        for theta in np.arange(1.0, 179.0 + 0.05, 0.1):
            lam = muscle_length(geom, float(theta))
            assert abs(joint_angle_from_length(geom, lam) - theta) <= 1e-9
        thetas = np.arange(0.0, 180.0 + 0.05, 0.1)
        lams = [muscle_length(geom, float(t)) for t in thetas]
        assert all(b > a for a, b in zip(lams, lams[1:]))


def test_criterion_8_som_unit_suite(babble_matrix_60s):
    with criterion(8, "full-rate convergence exact, contraction law, tie-break, "
                      "byte-identical retrain"):
        som = SomMap(1, 1, np.array([[0.15, 0.85, 0.4]]))
        x = np.array([[0.7, 0.2, 0.6]])
        trained, _ = train(som, x, TrainConfig(cycles=1, alpha0=1.0, alpha_end=1.0))
        assert np.array_equal(trained.weights[0], x[0])

        alpha, k = 0.3, 10
        som = SomMap(1, 1, np.array([[0.9, 0.1]]))
        target = np.array([0.25, 0.65])
        trained, _ = train(
            som, np.tile(target, (k, 1)),
            TrainConfig(cycles=1, shuffle=False, alpha0=alpha, alpha_end=alpha),
        )
        expected = (1 - alpha) ** k * np.linalg.norm(som.weights[0] - target)
        assert abs(np.linalg.norm(trained.weights[0] - target) - expected) <= 1e-12

        tie_map = SomMap(1, 2, np.array([[0.5, 0.5], [0.5, 0.5]]))
        sym_map = SomMap(1, 2, np.array([[0.0, 0.0], [1.0, 1.0]]))
        for m in (tie_map, sym_map):
            assert int(np.argmin(sq_distances(m.weights, np.array([[0.5, 0.5]])))) == 0

        ds = babble_matrix_60s
        codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), ds.joints)
        enc = encode_dataset(codec, ds)
        som = init_consistent(5, 5, codec, seed=9)
        cfg = TrainConfig(cycles=2, shuffle=True, seed=9)
        w1 = train(som, enc, cfg)[0].weights
        w2 = train(som, enc, cfg)[0].weights
        assert w1.tobytes() == w2.tobytes()


def test_criterion_9_kde_suite(rng):
    with criterion(9, "KDE normalizes to 1e-3, permutation-invariant, symmetric argmax"):
        samples = rng.uniform(-15, 15, 30)
        grid = np.linspace(-120.0, 120.0, 48001)
        dens = kde_density(samples, 1.7, grid)
        assert abs(np.trapezoid(dens, grid) - 1.0) <= 1e-3

        xs = rng.uniform(-20, 20, 50)
        fwd = kde_density(samples, 2.0, xs)
        perm = kde_density(rng.permutation(samples), 2.0, xs)
        assert np.array_equal(fwd, perm)

        grid = np.linspace(-6.0, 6.0, 2401)
        dens = kde_density([-1.0, 1.0], 1.5, grid)
        assert abs(grid[np.argmax(dens)]) <= 1e-9


def test_criterion_10_topology_preservation(babble_matrix_60s):
    ds = babble_matrix_60s
    codec = build_codec(CodecSpec("gaussian", "fixed_count", 10), ds.joints)
    enc = encode_dataset(codec, ds)
    with criterion(10, "trained maps: coherence ratio < 1 and TE <= init TE (medians)"):
        ratios, te_init, te_trained = [], [], []
        for seed in range(10):
            som = init_consistent(5, 5, codec, seed=seed)
            trained, _ = train(som, enc, TrainConfig(cycles=6, seed=seed))
            init, final = evaluate_map(som, codec, ds, enc), evaluate_map(trained, codec, ds, enc)
            ratios.append(final.neighbor_coherence_ratio)
            te_init.append(init.topographic_error)
            te_trained.append(final.topographic_error)
        print(f"  coherence median {np.median(ratios):.3f}; "
              f"TE {np.median(te_init):.3f} -> {np.median(te_trained):.3f}")
        assert np.median(ratios) < 1.0
        assert np.median(te_trained) <= np.median(te_init)
