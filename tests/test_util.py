import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from oracles import round_half_away

from sscomp import (
    AffinityMatrix,
    DataMatrix,
    ExperimentConfig,
    KArray,
    Labels,
    NeighborhoodScore,
    SyntheticSpec,
    add_gaussian_noise,
    blend_gaussian_noise,
    neighborhood_scores,
    normalize_columns,
    omp_solve,
    spectral_cluster,
    ssc_omp,
)
from sscomp.util import round_half_away_from_zero

POINTS = normalize_columns(DataMatrix(np.random.default_rng(0).standard_normal((4, 8))))
# three 2-point components, which spectral_cluster labels without an eigensolve
PAIRS = AffinityMatrix(sparse.csr_array(np.kron(np.eye(3), [[0.0, 1.0], [1.0, 0.0]])))
# 1-dim subspaces, so each size set to 3 (ambient_dim too) still makes a valid spec
SPEC = SyntheticSpec(3, 1, 12, 8, 0)
CONFIG = ExperimentConfig(SPEC, n_clusters=3, k=3)


def replacing(record, name):
    return lambda value: dataclasses.replace(record, **{name: value})


# every integer argument of the package: (call with the value, name, low)
INTEGER_ARGUMENTS = {
    "KArray.base_k": (lambda v: KArray(np.full(24, 2), v), "base_k", 1),
    "neighborhood_scores.k": (lambda v: neighborhood_scores(POINTS, v), "k", 2),
    "NeighborhoodScore.base_k": (lambda v: NeighborhoodScore(np.array([0.5]), 1.0, 0.0,
                                                             np.array([0.1]), v), "base_k", 2),
    **{f"SyntheticSpec.{name}": (replacing(SPEC, name), name, low) for name, low in (
        ("n_subspaces", 1), ("subspace_dim", 1), ("ambient_dim", 1),
        ("points_per_subspace", 1), ("rng_seed", 0))},
    **{f"ExperimentConfig.{name}": (replacing(CONFIG, name), name, low) for name, low in (
        ("n_clusters", 2), ("k", 1), ("trials", 1), ("samples_per_cluster", 1), ("seed", 0))},
    "ExperimentConfig.k[adaptive-omp]": (replacing(
        dataclasses.replace(CONFIG, method="adaptive-omp"), "k"), "k", 2),
    "Labels.n_clusters": (lambda v: Labels([0, 1, 2], v), "n_clusters", 1),
    "omp_solve.k": (lambda v: omp_solve(POINTS, np.ones(4), v), "k", 1),
    "spectral_cluster.n_clusters": (lambda v: spectral_cluster(PAIRS, v), "n_clusters", 2),
}


@pytest.mark.parametrize("call, name, low", INTEGER_ARGUMENTS.values(),
                         ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_share_one_rule(call, name, low):
    # a bool, a fraction and a whole float are all refused with one message;
    # True would otherwise pass as 1 and 3.0 as 3
    for value in (True, 2.5, 3.0):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer of at least {low}, got {value!r}")):
            call(value)
    call(np.int64(3))


EPS = "eps must be a finite number >= 0, got {!r}"
SIGMA = "noise rate sigma must be in [0, 1], got {}"
VARIANCE = "noise variance must be positive and finite, got {}"

# every float argument with a range check: (call with the value, message)
FLOAT_ARGUMENTS = {
    "ExperimentConfig.eps": (replacing(CONFIG, "eps"), EPS),
    "ExperimentConfig.noise_sigma": (replacing(CONFIG, "noise_sigma"), SIGMA),
    "ExperimentConfig.noise_variance": (replacing(CONFIG, "noise_variance"), VARIANCE),
    "add_gaussian_noise.sigma": (lambda v: add_gaussian_noise(POINTS, v), SIGMA),
    "add_gaussian_noise.variance": (lambda v: add_gaussian_noise(POINTS, 0.5, v), VARIANCE),
    "blend_gaussian_noise.sigma": (lambda v: blend_gaussian_noise(POINTS, v), SIGMA),
    "blend_gaussian_noise.variance": (lambda v: blend_gaussian_noise(POINTS, 0.5, v), VARIANCE),
    "omp_solve.eps": (lambda v: omp_solve(POINTS, np.ones(4), 2, v), EPS),
    "ssc_omp.eps": (lambda v: ssc_omp(POINTS, 2, v), EPS),
}


@pytest.mark.parametrize("call, message", FLOAT_ARGUMENTS.values(), ids=FLOAT_ARGUMENTS.keys())
def test_float_arguments_refuse_a_bool(call, message):
    # True would otherwise pass as 1.0 and be written into a trial's params
    for value in (True, np.True_):
        with pytest.raises(ValueError, match=re.escape(message.format(value))):
            call(value)
    call(0.5)


def test_halves_go_away_from_zero():
    assert round_half_away_from_zero(0.5) == 1
    assert round_half_away_from_zero(1.5) == 2
    assert round_half_away_from_zero(2.5) == 3
    assert round_half_away_from_zero(-0.5) == -1
    assert round_half_away_from_zero(-2.5) == -3


def test_plain_values():
    assert round_half_away_from_zero(0.0) == 0
    assert round_half_away_from_zero(2.3) == 2
    assert round_half_away_from_zero(2.7) == 3
    assert round_half_away_from_zero(-2.3) == -2


def test_scalar_comes_back_as_int():
    out = round_half_away_from_zero(3.4)
    assert isinstance(out, int)


def test_array_input():
    out = round_half_away_from_zero(np.array([0.5, -0.5, 1.49, -1.51]))
    assert out.dtype == np.int64
    assert out.tolist() == [1, -1, 1, -2]


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_matches_reference_and_stays_close(value):
    got = round_half_away_from_zero(value)
    assert got == round_half_away(value)
    assert abs(got - value) <= 0.5


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_odd_symmetry(value):
    assert round_half_away_from_zero(-value) == -round_half_away_from_zero(value)
