"""Quantiles, keep/drop masks, and the sparsification schedule."""

import math

import numpy as np
import pytest

from splatrim.core import GaussianSet
from splatrim.errors import InvalidParameterError
from splatrim.prune import (
    PruneCriterion,
    PruneSchedule,
    apply_mask,
    per_iteration_fraction,
    prune_mask,
    quantile,
)


def brute_force_keep(opacities, grads, fraction, criterion):
    """Literal evaluation of the keep rule via explicit sorting."""
    n = len(opacities)
    k = int(math.floor(fraction * n))

    def threshold(values):
        if k == 0:
            return -math.inf
        return sorted(values)[k]

    keep = [a >= threshold(list(opacities)) for a in opacities]
    if criterion is PruneCriterion.GRADIENT_AWARE:
        gt = threshold(list(grads))
        keep = [ka or g >= gt for ka, g in zip(keep, grads)]
    return np.array(keep)


class TestSchedule:
    def test_single_step(self):
        assert per_iteration_fraction(0.5, 1) == 0.5

    def test_zero_target(self):
        for t in (1, 5, 20):
            assert per_iteration_fraction(0.0, t) == 0.0

    def test_worked_value(self):
        assert per_iteration_fraction(0.75, 10) == pytest.approx(0.129449, abs=1e-6)

    def test_compounding_grid(self):
        for gamma in np.arange(0.0, 0.95, 0.1):
            for t in range(1, 21):
                gi = per_iteration_fraction(gamma, t)
                assert (1.0 - gi) ** t == pytest.approx(1.0 - gamma, abs=1e-12)

    def test_monotone_in_target(self):
        values = [per_iteration_fraction(g, 7) for g in np.linspace(0, 0.9, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_steps(self):
        values = [per_iteration_fraction(0.6, t) for t in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            per_iteration_fraction(1.0, 5)
        with pytest.raises(InvalidParameterError):
            per_iteration_fraction(-0.1, 5)
        with pytest.raises(InvalidParameterError):
            per_iteration_fraction(0.5, 0)

    def test_schedule_validation(self):
        with pytest.raises(InvalidParameterError):
            PruneSchedule(gamma_target=1.0)
        with pytest.raises(InvalidParameterError):
            PruneSchedule(gamma_target=0.5, steps=0)
        sched = PruneSchedule(gamma_target=0.75, steps=10)
        assert sched.gamma_iter == pytest.approx(0.129449, abs=1e-6)


class TestQuantile:
    def test_worked_example(self):
        assert quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 3.0

    def test_fraction_zero_keeps_all(self):
        assert quantile(np.array([5.0, 1.0]), 0.0) == -math.inf

    def test_all_equal_values(self):
        values = np.full(10, 0.7)
        threshold = quantile(values, 0.4)
        assert threshold == 0.7
        # ties survive the >= comparison: nothing would be pruned
        assert np.all(values >= threshold)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            quantile(np.array([]), 0.5)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            values = rng.normal(size=n)
            fraction = float(rng.uniform(0, 0.999))
            k = int(math.floor(fraction * n))
            expected = -math.inf if k == 0 else sorted(values)[k]
            assert quantile(values, fraction) == expected

    def test_exact_count_strictly_below(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            values = rng.normal(size=n)  # distinct almost surely
            fraction = float(rng.uniform(0.01, 0.99))
            threshold = quantile(values, fraction)
            assert int((values < threshold).sum()) == int(math.floor(fraction * n))


class TestPruneMask:
    def test_gamma_zero_keeps_all(self):
        rng = np.random.default_rng(2)
        alpha = rng.uniform(0, 1, 50)
        grads = rng.uniform(0, 1, 50)
        assert prune_mask(alpha, grads, 0.0)[0].all()

    def test_worked_union_example(self):
        alpha = np.array([0.1, 0.2, 0.3, 0.4])
        grads = np.array([4.0, 3.0, 2.0, 1.0])
        keep = prune_mask(alpha, grads, 0.5, PruneCriterion.GRADIENT_AWARE)[0]
        np.testing.assert_array_equal(keep, [True, True, True, True])
        np.testing.assert_array_equal(
            keep, brute_force_keep(alpha, grads, 0.5, PruneCriterion.GRADIENT_AWARE)
        )

    def test_worked_opacity_only_example(self):
        alpha = np.array([0.1, 0.2, 0.3, 0.4])
        grads = np.array([4.0, 3.0, 2.0, 1.0])
        keep = prune_mask(alpha, grads, 0.5, PruneCriterion.OPACITY_ONLY)[0]
        np.testing.assert_array_equal(keep, [False, False, True, True])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 1001))
        alpha = rng.uniform(0, 1, n)
        grads = rng.exponential(1.0, n)
        fraction = float(rng.uniform(0, 0.95))
        for criterion in PruneCriterion:
            np.testing.assert_array_equal(
                prune_mask(alpha, grads, fraction, criterion)[0],
                brute_force_keep(alpha, grads, fraction, criterion),
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_aware_keeps_superset(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 1001))
        alpha = rng.uniform(0, 1, n)
        grads = rng.exponential(1.0, n)
        fraction = float(rng.uniform(0, 0.95))
        union = prune_mask(alpha, grads, fraction, PruneCriterion.GRADIENT_AWARE)[0]
        opacity = prune_mask(alpha, grads, fraction, PruneCriterion.OPACITY_ONLY)[0]
        assert np.all(union | ~opacity)  # opacity keep-set is contained in union

    @pytest.mark.parametrize("seed", range(10))
    def test_removal_counts(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 1001))
        alpha = rng.uniform(0, 1, n)
        grads = rng.exponential(1.0, n)
        fraction = float(rng.uniform(0, 0.95))
        expected = int(math.floor(fraction * n))
        opacity = prune_mask(alpha, grads, fraction, PruneCriterion.OPACITY_ONLY)[0]
        assert int((~opacity).sum()) == expected
        union = prune_mask(alpha, grads, fraction, PruneCriterion.GRADIENT_AWARE)[0]
        assert int((~union).sum()) <= expected

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            prune_mask(np.zeros(4), np.zeros(5), 0.5)


def small_scene(n, seed=0):
    rng = np.random.default_rng(seed)
    return GaussianSet(
        positions=rng.normal(size=(n, 3)).astype(np.float32),
        rotations=rng.normal(size=(n, 4)).astype(np.float32),
        log_scales=rng.normal(size=(n, 3)).astype(np.float32),
        opacity_logits=rng.normal(size=n).astype(np.float32),
        sh_coeffs=rng.normal(size=(n, 16, 3)).astype(np.float32),
    )


class TestApplyMask:
    def test_all_true_is_identity(self):
        g = small_scene(6)
        out = apply_mask(g, np.ones(6, bool))
        for name in ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs"):
            np.testing.assert_array_equal(getattr(out, name), getattr(g, name))

    def test_all_false_is_empty(self):
        g = small_scene(6)
        assert apply_mask(g, np.zeros(6, bool)).count == 0

    def test_alternating_mask(self):
        g = small_scene(6)
        keep = np.array([True, False, True, False, True, False])
        out = apply_mask(g, keep)
        assert out.count == 3
        np.testing.assert_array_equal(out.positions, g.positions[[0, 2, 4]])

    def test_survivors_bitwise_preserved(self):
        g = small_scene(100, seed=5)
        keep = np.random.default_rng(6).uniform(size=100) > 0.4
        out = apply_mask(g, keep)
        for name in ("positions", "rotations", "log_scales", "opacity_logits", "sh_coeffs"):
            before = getattr(g, name)[keep]
            after = getattr(out, name)
            np.testing.assert_array_equal(
                before.view(np.uint32), after.view(np.uint32)
            )

    def test_length_mismatch(self):
        g = small_scene(6)
        with pytest.raises(InvalidParameterError):
            apply_mask(g, np.ones(5, bool))

    def test_non_boolean_mask_rejected(self):
        g = small_scene(4)
        with pytest.raises(InvalidParameterError):
            apply_mask(g, np.ones(4, np.int64))
