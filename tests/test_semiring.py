"""Unit tests for the semiring algebra."""

import numpy as np
import pytest

from repro.semiring import (
    MAX_TIMES,
    MIN_FIRST,
    MIN_PLUS,
    OR_AND,
    PLUS_AND,
    PLUS_FIRST,
    PLUS_PAIR,
    PLUS_SECOND,
    PLUS_TIMES,
    STANDARD_SEMIRINGS,
    Semiring,
)

ALL = list(STANDARD_SEMIRINGS.values())


@pytest.mark.parametrize("sr", ALL, ids=[s.name for s in ALL])
class TestSemiringLaws:
    """Algebraic laws every registered semiring must satisfy (on a sample)."""

    def _sample(self, sr):
        # boolean semirings are only defined on {0, 1}
        if sr.name in ("or_and",):
            return [0.0, 1.0]
        return [0.0, 1.0, 2.0, 3.5, 7.0]

    def test_add_commutative(self, sr):
        sample = self._sample(sr)
        for x in sample:
            for y in sample:
                assert sr.add(x, y) == sr.add(y, x)

    def test_add_associative(self, sr):
        sample = self._sample(sr)
        for x in sample:
            for y in sample:
                for z in sample:
                    assert sr.add(sr.add(x, y), z) == pytest.approx(
                        sr.add(x, sr.add(y, z))
                    )

    def test_add_identity(self, sr):
        for x in self._sample(sr):
            assert sr.add(x, sr.add_identity) == x
            assert sr.add(sr.add_identity, x) == x

    def test_scalar_matches_ufunc(self, sr):
        xs = np.array(self._sample(sr) * 2)
        ys = np.array((self._sample(sr) * 2)[::-1])
        vec = np.asarray(sr.add_ufunc(xs, ys), dtype=float)
        scal = np.array([sr.add(x, y) for x, y in zip(xs, ys)], dtype=float)
        assert np.allclose(vec, scal)

    def test_mult_scalar_matches_ufunc(self, sr):
        xs = np.array(self._sample(sr) * 2)
        ys = np.array((self._sample(sr) * 2)[::-1])
        vec = np.asarray(sr.mult_ufunc(xs, ys), dtype=float)
        scal = np.array([sr.mult(x, y) for x, y in zip(xs, ys)], dtype=float)
        assert np.allclose(vec, scal)


class TestSpecificSemirings:
    def test_plus_times(self):
        assert PLUS_TIMES.mult(3.0, 4.0) == 12.0
        assert PLUS_TIMES.add(3.0, 4.0) == 7.0

    def test_plus_pair_counts(self):
        # PAIR ignores values: every matched pair contributes exactly 1
        assert PLUS_PAIR.mult(17.0, -3.0) == 1.0
        assert PLUS_PAIR.mult(0.5, 0.5) == 1.0

    def test_plus_and(self):
        assert PLUS_AND.mult(2.0, 3.0) == 1.0
        assert PLUS_AND.mult(0.0, 3.0) == 0.0

    def test_min_plus(self):
        assert MIN_PLUS.mult(2.0, 3.0) == 5.0
        assert MIN_PLUS.add(2.0, 3.0) == 2.0
        assert MIN_PLUS.add_identity == np.inf

    def test_max_times(self):
        assert MAX_TIMES.add(2.0, 3.0) == 3.0
        assert MAX_TIMES.add_identity == -np.inf

    def test_or_and(self):
        assert OR_AND.add(0.0, 0.0) == 0.0
        assert OR_AND.add(1.0, 0.0) == 1.0
        assert OR_AND.mult(1.0, 1.0) == 1.0

    def test_first_second(self):
        assert PLUS_FIRST.mult(5.0, 9.0) == 5.0
        assert PLUS_SECOND.mult(5.0, 9.0) == 9.0
        assert MIN_FIRST.mult(5.0, 9.0) == 5.0

    def test_registry_complete(self):
        assert set(STANDARD_SEMIRINGS) == {
            "plus_times",
            "plus_pair",
            "plus_and",
            "min_plus",
            "max_times",
            "or_and",
            "min_first",
            "plus_first",
            "plus_second",
        }

    def test_custom_semiring(self):
        sr = Semiring("plus_max", lambda x, y: x + y, max,
                      add_ufunc=np.add, mult_ufunc=np.maximum)
        assert sr.mult(2.0, 5.0) == 5.0
        assert sr.plus(1.0, 2.0) == 3.0
        assert repr(sr) == "Semiring(plus_max)"


class TestNaNSignDoesNotDependOnHistory:
    """CPython specialises a lambda's ``x + y`` for floats and de-specialises
    it once a NumPy scalar passes through, and the two paths add two NaNs of
    opposite sign in opposite operand order; ``operator.add`` has one path."""

    @staticmethod
    def _burst(kind):
        for _ in range(200):
            PLUS_TIMES.add(kind(1.0), kind(2.0))
            PLUS_TIMES.mult(kind(1.0), kind(2.0))

    def test_scalar_operators(self):
        nan, seen = float("nan"), []
        for kind in (float, np.float64, float):
            self._burst(kind)
            seen.append((np.signbit(PLUS_TIMES.add(nan, -nan)),
                         np.signbit(PLUS_TIMES.mult(nan, -nan))))
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("algo", ["heap", "esc"])
    def test_reference_tier_bytes(self, algo):
        from repro.core import masked_spgemm

        from .lattice import ADVERSARIAL

        a, b, m = ADVERSARIAL["mega-row"]  # NaNs of both signs meet in its sums
        seen = []
        for kind in (float, np.float64):
            self._burst(kind)
            out = masked_spgemm(a, b, m, algo=algo, impl="reference", complement=True)
            seen.append(out.data.tobytes())
        assert np.isnan(np.frombuffer(seen[0])).any()
        assert seen[0] == seen[1]
