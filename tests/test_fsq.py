import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_cli import SCHEMES

from jdtok import fsq
from jdtok.errors import ValidationError
from jdtok.fsq import (
    FsqLevels,
    _identity,
    _ordered,
    _thresholds,
    fsq_boundaries,
    fsq_dequantize,
    fsq_indices,
    fsq_quantize,
    quantize_projected,
)
from jdtok.radix import MAX_RADIX, build_scheme, pack_frames


def argmin_oracle(values, levels):
    """Brute-force snap: the first argmin of |v - b| over ``fsq_boundaries``."""
    idx = np.empty(values.shape, dtype=np.int64)
    val = np.empty(values.shape)
    for d, ld in enumerate(levels):
        b = fsq_boundaries(ld)
        idx[d] = np.argmin(np.abs(values[d][:, None] - b[None, :]), axis=1)
        val[d] = b[idx[d]]
    return idx, val


# level lists around each digit-dtype edge: 256 and 65536 levels are the
# last of uint8 and uint16; mixed lists take the width of their largest level
DIGIT_LEVELS = {
    "1": (1,),
    "2": (2,),
    "4x128": (4,) * 128,
    "256": (256,),
    "257": (257,),
    "65535x2": (65535,) * 2,
    "65536": (65536,),
    "65537": (65537,),
    "4,5x64": (4, 5) * 64,
    "8,5,5,5x32": (8, 5, 5, 5) * 32,
    "2..129": tuple(range(2, 130)),
}


def adversarial_values(level):
    """Lattice points, midpoints and +-1, each with 16 float steps either side."""
    b = fsq_boundaries(level)
    mid = (2.0 * np.arange(1, level) - level) / level
    base = np.concatenate([b, mid, [-1.0, 1.0]])
    out, up, down = [base], base, base
    for _ in range(16):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def ulp_window(centres, dtype, half=2**16):
    """Every ``dtype`` float within ``half`` ulps of each centre, a row per centre."""
    itype = np.int64 if dtype == np.float64 else np.int32
    magnitude = np.iinfo(itype).max
    bits = np.asarray(centres, dtype=dtype).view(itype)
    keys = bits ^ ((bits >> (8 * bits.itemsize - 1)) & magnitude)  # float order
    keys = keys[:, None] + np.arange(-half, half + 1, dtype=itype)
    return (keys ^ ((keys >> (8 * keys.itemsize - 1)) & magnitude)).view(dtype)


def rounded_up_to_float32(x):
    """float64 ``x`` rounded up to float32, as ``_thresholds`` builds a float32 table."""
    table = x.astype(np.float32)
    low = table < x
    table[low] = np.nextafter(table[low], np.float32(np.inf))
    return table


class TestFloat32Margin:
    """The float32 tanh tables do not depend on the last float64 ulps of tanh.

    float64 np.tanh differs at ulp level between numpy's SIMD targets, which
    moved a float64 threshold by up to 468 ulps at L = 65535.  Each float32
    threshold is the float64 one rounded up, so the CLI's token bytes stay
    the same on every platform only while no float64 threshold lies within
    that distance of a float32 rounding boundary.
    """

    @pytest.mark.parametrize(
        "level", sorted({L for levels, _ in SCHEMES.values() for L in levels} | {255, 256})
    )
    def test_table_survives_1024_ulps_either_way(self, level):
        exact = _thresholds(level, np.tanh, np.float64)[: level - 1]
        table = _thresholds(level, np.tanh, np.float32)[: level - 1]
        keep = np.ones(level - 1, dtype=bool)
        if level % 2 == 0:  # the middle one: a tiny power of two, exact in float32, where tanh(x) = x
            keep[level // 2 - 1] = False
        # rounding up is monotone: the two ends bound every move in between
        for ulps in (-1024, 0, 1024):
            moved = _ordered(_ordered(exact.view(np.int64)) + ulps).view(np.float64)
            np.testing.assert_array_equal(rounded_up_to_float32(moved)[keep], table[keep])


class TestBoundaries:
    def test_four_levels(self):
        np.testing.assert_array_equal(
            fsq_boundaries(4), np.array([-0.75, -0.25, 0.25, 0.75])
        )

    def test_single_level_is_zero(self):
        np.testing.assert_array_equal(fsq_boundaries(1), np.array([0.0]))

    def test_two_levels(self):
        np.testing.assert_array_equal(fsq_boundaries(2), np.array([-0.5, 0.5]))

    @pytest.mark.parametrize("level", range(1, 65))
    def test_antisymmetric_and_increasing(self, level):
        b = fsq_boundaries(level)
        np.testing.assert_allclose(b[::-1], -b, atol=0)
        if level > 1:
            assert np.all(np.diff(b) > 0)
        assert np.max(np.abs(b)) <= (level - 1) / level

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            fsq_boundaries(0)


class TestQuantize:
    def test_near_quarter_lands_on_quarter(self):
        # tanh(0.3097) ~ 0.300, nearest of {-0.75,-0.25,0.25,0.75} is 0.25
        idx, val = fsq_quantize(np.array([[0.3097]]), FsqLevels((4,)))
        assert idx[0, 0] == 2
        assert val[0, 0] == 0.25

    def test_saturation_hits_top_level(self):
        idx, val = fsq_quantize(np.array([[100.0]]), FsqLevels((4,)))
        assert idx[0, 0] == 3
        assert val[0, 0] == 0.75

    def test_midpoint_tie_breaks_low(self):
        # tanh(0) = 0 is equidistant from -0.25 and 0.25
        idx, val = fsq_quantize(np.array([[0.0]]), FsqLevels((4,)))
        assert idx[0, 0] == 1
        assert val[0, 0] == -0.25

    def test_matches_brute_force_argmin(self):
        rng = np.random.default_rng(0)
        levels = (1, 2, 3, 4, 5, 8)
        z = rng.standard_normal((6, 200)) * 2
        cases = [(fsq_quantize, z, levels, np.tanh(z))]
        # every level 1..16 on its own and all on one mixed-level array, at
        # the points where rounding could tip a closed form off the argmin
        for level in range(1, 17):
            v = adversarial_values(level)[None, :]
            cases.append((quantize_projected, v, (level,), v))
            raw = np.arctanh(v[np.abs(v) < 1][None, :])
            cases.append((fsq_quantize, raw, (level,), np.tanh(raw)))
        every = np.concatenate([adversarial_values(lv) for lv in range(1, 17)])
        mixed = np.tile(every, (16, 1))
        cases.append((quantize_projected, mixed, tuple(range(1, 17)), mixed))
        for fn, x, lv, projected in cases:
            idx, val = fn(x, FsqLevels(lv))
            expect_idx, expect_val = argmin_oracle(projected, lv)
            np.testing.assert_array_equal(idx, expect_idx)
            assert np.array_equal(val, expect_val)
        # the float just above -1/2 lies nearer -1/4 than -3/4
        v = np.array([[-0.49999999999999994]])
        idx, val = quantize_projected(v, FsqLevels((4,)))
        assert idx[0, 0] == 1
        assert val[0, 0] == -0.25

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("level", range(1, 17))
    def test_every_float_near_every_threshold(self, level, dtype):
        # the table's own float32 or float64 entries; L = 1 has none, so 0
        for fn, transform in ((fsq_quantize, np.tanh), (quantize_projected, _identity)):
            centres = _thresholds(level, transform, dtype)[: level - 1]
            x = ulp_window(centres if level > 1 else [0.0], dtype)
            lv = (level,) * x.shape[0]
            idx, val = fn(x, FsqLevels(lv))
            expect_idx, expect_val = argmin_oracle(transform(x.astype(np.float64)), lv)
            np.testing.assert_array_equal(idx, expect_idx)
            assert np.array_equal(val, expect_val)

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_huge_values_snap_to_the_outermost_points(self, level):
        # both rounded distances of a value this large are equal
        v = np.array([[1e16, 1e300, -1e16, -1e300]])
        idx, val = quantize_projected(v, FsqLevels((level,)))
        np.testing.assert_array_equal(idx[0], [level - 1, level - 1, 0, 0])
        np.testing.assert_array_equal(val[0], fsq_boundaries(level)[idx[0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixed_levels_match_per_level_calls(self, dtype):
        levels = (4, 65535, 1, 7, 65535, 2, 16, 4)
        z = (np.random.default_rng(3).standard_normal((8, 700)) * 2).astype(dtype)
        for fn in (fsq_quantize, quantize_projected):
            idx, val = fn(z, FsqLevels(levels))
            for d, level in enumerate(levels):
                one_idx, one_val = fn(z[d : d + 1], FsqLevels((level,)))
                np.testing.assert_array_equal(idx[d], one_idx[0])
                assert np.array_equal(val[d], one_val[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("levels", DIGIT_LEVELS.values(), ids=DIGIT_LEVELS)
    def test_indices_take_the_narrowest_unsigned_dtype(self, levels, dtype):
        top = max(levels)
        digit = np.uint8 if top <= 256 else np.uint16 if top <= 65536 else np.uint32
        rng = np.random.default_rng(top + len(levels))
        z = (3 * rng.standard_normal((len(levels), 40))).astype(dtype)
        bounded = np.tanh(z)  # in dtype: the projected snap's own input
        scheme = build_scheme(levels, min(2, len(levels))) if top <= MAX_RADIX else None
        for idx, val, projected in (
            (*fsq_quantize(z, FsqLevels(levels)), np.tanh(z.astype(np.float64))),
            (*quantize_projected(bounded, FsqLevels(levels)), bounded.astype(np.float64)),
            (fsq_indices(z, levels), None, np.tanh(z.astype(np.float64))),
        ):
            expect_idx, expect_val = argmin_oracle(projected, levels)
            assert idx.dtype == digit
            np.testing.assert_array_equal(idx, expect_idx)
            assert val is None or np.array_equal(val, expect_val)
            if scheme is not None:  # within the token file's radix limit
                tokens, expected = pack_frames(idx.T, scheme), pack_frames(expect_idx.T, scheme)
                assert tokens.dtype == expected.dtype and np.array_equal(tokens, expected)

    @pytest.mark.parametrize(
        "level, dtype",
        [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
         (2**32, np.uint32), (2**32 + 1, np.uint64), (2**64, np.uint64)],
    )
    def test_digit_dtype_holds_the_largest_digit(self, level, dtype):
        # beyond any table a snap can build, but a dtype, not numpy's object at 2**64
        assert fsq._digit_dtype(level) == np.dtype(dtype)

    def count_builds(self, monkeypatch):
        """A list that grows by each ``_thresholds`` call, from an empty cache on."""
        builds = []
        thresholds = fsq._thresholds

        def counting(*key):
            builds.append(key)
            return thresholds(*key)

        monkeypatch.setattr(fsq, "_thresholds", counting)
        fsq._level_tables.cache_clear()
        return builds

    def test_many_distinct_levels_build_their_tables_once(self, monkeypatch):
        # 128 distinct counts, each with its own table, snapped block after block
        levels = FsqLevels(tuple(range(2, 130)))
        z = (np.random.default_rng(5).standard_normal((128, 1024)) * 2).astype(np.float32)
        builds = self.count_builds(monkeypatch)
        first = fsq_indices(z, levels)
        assert len(builds) == 2 * 128  # each float32 table rounds up a float64 one
        hits = fsq._level_tables.cache_info().hits
        second = fsq_indices(z, levels)
        assert len(builds) == 2 * 128
        assert fsq._level_tables.cache_info().hits == hits + 1
        np.testing.assert_array_equal(second, first)
        for d, level in enumerate(levels.levels):
            np.testing.assert_array_equal(first[d], fsq_indices(z[d : d + 1], FsqLevels((level,)))[0])

    def test_threads_snapping_a_new_list_build_its_tables_once(self, monkeypatch):
        levels = FsqLevels(tuple(range(2, 34)))
        z = np.random.default_rng(6).standard_normal((32, 64)).astype(np.float32)
        builds = self.count_builds(monkeypatch)
        start = threading.Barrier(4)
        results = [None] * 4

        def snap(i):
            start.wait()
            results[i] = fsq_indices(z, levels)

        threads = [threading.Thread(target=snap, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 2 * 32
        for result in results:
            np.testing.assert_array_equal(result, results[0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fsq_quantize(np.array([[np.nan]]), FsqLevels((4,)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fsq_quantize(np.zeros((3, 5)), FsqLevels((4, 4)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        level=st.integers(1, 12),
        scale=st.floats(0.1, 100.0),
    )
    def test_approximation_bound_and_monotonicity(self, seed, level, scale):
        rng = np.random.default_rng(seed)
        z = np.sort(rng.standard_normal(64) * scale)[None, :]
        idx, val = fsq_quantize(z, FsqLevels((level,)))
        assert np.all(np.abs(val - np.tanh(z)) <= 1.0 / level + 1e-15)
        assert np.all(np.diff(idx[0]) >= 0)


class TestDequantize:
    def test_lookup(self):
        out = fsq_dequantize(np.array([[2]]), FsqLevels((4,)))
        assert out[0, 0] == 0.25

    def test_single_level(self):
        assert fsq_dequantize(np.array([[0]]), FsqLevels((1,)))[0, 0] == 0.0

    def test_out_of_range_names_location(self):
        with pytest.raises(ValidationError, match=r"dimension 1.*frame 3"):
            idx = np.zeros((2, 5), dtype=np.int64)
            idx[1, 3] = 4
            fsq_dequantize(idx, FsqLevels((4, 4)))

    @pytest.mark.parametrize("index", [-0.5, 0.5, 3.5, 3.9, True])
    def test_rejects_non_integer_indices(self, index):
        idx = np.zeros((2, 5), dtype=type(index))
        idx[1, 3] = index
        with pytest.raises(ValidationError, match="integers"):
            fsq_dequantize(idx, FsqLevels((4, 4)))

    @pytest.mark.parametrize("frames", [1, 2, 300])
    def test_matches_lattice_for_mixed_levels(self, frames):
        levels = FsqLevels((4, 1, 7, 2, 16, 3))
        rng = np.random.default_rng(frames)
        idx = np.stack([rng.integers(0, ld, size=frames) for ld in levels.levels])
        values = fsq_dequantize(idx, levels)
        for d, ld in enumerate(levels.levels):
            assert np.array_equal(values[d], fsq_boundaries(ld)[idx[d]])

    def test_wide_levels_stay_bounded(self):
        # a token file may declare 65535 levels per dimension; memory must
        # follow the index array, not the level counts
        levels = FsqLevels((65535,) * 1000)
        idx = np.full((1000, 1), 65534)
        tracemalloc.start()
        try:
            values = fsq_dequantize(idx, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.all(values == fsq_boundaries(65535)[-1])

    def test_round_trip_is_idempotent(self):
        rng = np.random.default_rng(1)
        levels = FsqLevels((4, 4, 7, 2, 1))
        idx = np.stack([rng.integers(0, ld, size=300) for ld in levels.levels])
        values = fsq_dequantize(idx, levels)
        idx2, values2 = quantize_projected(values, levels)
        np.testing.assert_array_equal(idx, idx2)
        np.testing.assert_array_equal(values, values2)

    @pytest.mark.parametrize("level", range(1, 9))
    def test_every_boundary_self_quantizes(self, level):
        b = fsq_boundaries(level)
        idx, val = quantize_projected(b[None, :], FsqLevels((level,)))
        np.testing.assert_array_equal(idx[0], np.arange(level))
        np.testing.assert_array_equal(val[0], b)


class TestLevels:
    def test_default_replicates_four(self):
        levels = FsqLevels()
        assert levels.dim == 128
        assert set(levels.levels) == {4}

    def test_invalid(self):
        with pytest.raises(ValueError):
            FsqLevels(())
        with pytest.raises(ValueError):
            FsqLevels((4, 0))

    @pytest.mark.parametrize("dtype", ["<u2", np.int64, np.uint64, np.int8])
    def test_numpy_integer_levels_become_python_ints(self, dtype):
        # read_token_file passes the header's <u2 radices as they are
        levels = FsqLevels(np.array([4, 7, 1], dtype=dtype))
        assert levels.levels == (4, 7, 1)
        assert all(type(v) is int for v in levels.levels)

    @pytest.mark.parametrize("bad", [(np.float64(4.0),), np.array([4.0, 2.0]), ("4",)])
    def test_non_integer_levels_rejected(self, bad):
        with pytest.raises(ValueError, match="^levels must be integers, got "):
            FsqLevels(bad)
