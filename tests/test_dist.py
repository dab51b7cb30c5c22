import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp, stats

from chainsup import dist
from chainsup.streams import RngStream

ALL_MODELS = {
    "gaussian": dist.gaussian,
    "rademacher": dist.rademacher,
    "sym_exponential": dist.sym_exponential,
    "sym_weibull_1.5": lambda: dist.sym_weibull(1.5),
    "three_point_100": lambda: dist.three_point(100.0),
}


@pytest.fixture(params=list(ALL_MODELS), ids=list(ALL_MODELS))
def model(request):
    return ALL_MODELS[request.param]()


class TestMoments:
    def test_standardized(self, model):
        assert model.moment(2) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_p(self, model):
        grid = [1, 1.5, 2, 3, 4.5, 8, 16, 31, 64]
        moments = [model.moment(p) for p in grid]
        for lo, hi in zip(moments, moments[1:]):
            assert hi >= lo - 1e-12

    def test_gaussian_p4(self):
        # quadrature oracle: E g^4 = 3
        g = dist.gaussian()
        assert g.moment(4) == pytest.approx(3.0 ** 0.25, rel=1e-12)
        assert dist.moment_quadrature(g, 4) == pytest.approx(3.0 ** 0.25, rel=1e-8)

    def test_rademacher_any_p(self):
        assert dist.rademacher().moment(17) == 1.0

    def test_sym_exponential_p3(self):
        # Gamma(p+1)^(1/p)/sqrt(2) against quadrature
        e = dist.sym_exponential()
        assert e.moment(3) == pytest.approx(6.0 ** (1 / 3) / math.sqrt(2), rel=1e-12)
        assert dist.moment_quadrature(e, 3) == pytest.approx(e.moment(3), rel=1e-8)

    def test_quadrature_consistency(self, model):
        for p in (2, 3.5, 6):
            assert dist.moment_quadrature(model, p) == pytest.approx(
                model.moment(p), rel=1e-6)

    def test_three_point_closed_form(self):
        tp = dist.three_point(100.0)
        assert tp.moment(4) == pytest.approx(10.0, rel=1e-12)

    def test_p_below_one_rejected(self, model):
        with pytest.raises(ValueError):
            model.moment(0.5)


class TestTails:
    def test_rademacher(self):
        r = dist.rademacher()
        assert r.tail_value(0.5) == 0.0
        assert r.tail_value(1.0) == math.inf

    def test_sym_exponential_linear(self):
        e = dist.sym_exponential()
        for t in (0.1, 1.0, 7.3):
            assert e.tail_value(t) == pytest.approx(math.sqrt(2) * t, rel=1e-12)

    def test_gaussian_zero(self):
        assert dist.gaussian().tail_value(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_small_t(self):
        # N(t) = a t + a^2 t^2 / 2 + O(t^3), a = sqrt(2/pi); ln 2 + log_ndtr(-t)
        # cancels here and was off by 1.3e-5 relative at t = 1e-11
        a = math.sqrt(2.0 / math.pi)
        ts = np.geomspace(1e-13, 1e-7, 61)
        got = dist.gaussian().tail_value(ts)
        assert np.max(np.abs(got / (a * ts + 0.5 * a * a * ts * ts) - 1.0)) <= 1e-12

    def test_gaussian_continuous_at_switch(self):
        # the log1p(-erf) form below t = 1 meets the log_ndtr form at t = 1
        g = dist.gaussian()
        ts = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
        vals = g.tail_value(ts)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[2] - vals[0] <= 4 * np.spacing(vals[1])

    def test_gaussian_quantile_near_zero(self):
        g = dist.gaussian()
        es = np.geomspace(1e-20, 1e-9, 1101)
        got = g.tail.quantile(es)
        want = math.sqrt(2.0) * sp.erfinv(-np.expm1(-es))
        rel = np.abs(got - want) / want
        ns, ts = g.tail._inverse_grid
        # the grid keeps its 8,192 points from hi * 1e-12 = 6.4e-11 to hi = 64
        # and reaches on down to 6.4e-17; below N(6.4e-11) = 5.1e-11 it once
        # followed a chord of N, off by up to 2.6e-11 relative
        assert np.array_equal(ts[-8192:], np.geomspace(64e-12, 64.0, 8192))
        assert ts[0] == 0.0 and ts[1] == pytest.approx(64e-18, rel=1e-12)
        assert (es < ns[1]).any() and (es < 5.1e-11).sum() > 900
        # below N(ts[1]) the chord errs by ts[1] / sqrt(2 pi) = 2.6e-17 relative
        assert np.max(rel) <= 1e-12

    def test_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.tail_value(-0.1)

    def test_nondecreasing(self, model):
        hi = min(model.support_bound, 50.0)
        ts = np.linspace(0, hi * 0.999, 100)
        vals = np.asarray(model.tail_value(ts))
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("make,inverse,rel", [
        # 1.5e-6 for the gaussian: linear interpolation of t = N^-1 on the
        # 8,192-point geometric grid errs by up to (r^2 - 1)^2 / 32 = 1.43e-6
        # where N grows like t^2/2 (r = 1e12^(1/8191)); e below 1e-9 is
        # covered by test_gaussian_quantile_near_zero
        (dist.gaussian,
         lambda e: np.where(e < 1.0, math.sqrt(2.0) * sp.erfinv(-np.expm1(-e)),
                            stats.norm.isf(np.exp(-e) / 2.0)), 1.5e-6),
        (dist.sym_exponential, lambda e: e / math.sqrt(2.0), 1e-6),
        (lambda: dist.sym_weibull(1.5),
         lambda e: math.exp(-0.5 * math.lgamma(1.0 + 2.0 / 1.5)) * e ** (1.0 / 1.5), 1e-6),
    ], ids=["gaussian", "sym_exponential", "sym_weibull_1.5"])
    def test_quantile_inverts_closed_forms(self, make, inverse, rel):
        es = np.geomspace(1e-9, 40.0, 4001)
        got = make().tail.quantile(es)
        want = inverse(es)
        assert np.max(np.abs(got - want) / want) <= rel

    def test_tail_moment_identity(self, model):
        # moment(p)^p = int p t^(p-1) exp(-N(t)) dt
        for p in (2.0, 4.0):
            assert dist.moment_quadrature(model, p) ** p == pytest.approx(
                model.moment(p) ** p, rel=1e-6)


# Each family's draws written with numpy's allocating calls (weibull,
# exponential(scale=)) and signs read from the raw words: the top bit of
# each 32-bit half for signed magnitudes, np.unpackbits for rademacher.
# The oracle of the stream property below; each returns (draws, the
# unscaled weibull draws or None).

def _oracle_signs(rng, n):
    # sign k is + where the top bit of the k-th 32-bit half of the next
    # ceil(n/2) raw words is set, low half first
    words = np.asarray(rng.bit_generator.random_raw(-(-n // 2)), dtype=np.uint64)
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()[:n]
    return np.where(halves >> 31 == 1, 1.0, -1.0)


def _oracle_packed_signs(rng, n):
    words = np.asarray(rng.bit_generator.random_raw(-(-n // 64)), "<u8")
    return np.unpackbits(words.view(np.uint8), count=n) * 2.0 - 1.0


_WEIBULL_SHAPE = 1.5
_WEIBULL_SCALE = math.exp(-0.5 * math.lgamma(1.0 + 2.0 / _WEIBULL_SHAPE))


def _oracle_weibull(rng, n):
    raw = rng.weibull(_WEIBULL_SHAPE, size=n)
    return _WEIBULL_SCALE * raw * _oracle_signs(rng, n), raw


def _oracle_three_point(rng, n, a=3.0):
    u = rng.random(n)
    p_atom = 1.0 / (a * a)
    return np.where(u < p_atom / 2.0, a, np.where(u < p_atom, -a, 0.0)), None


_TAIL_MODEL = dist.log_concave_from_tail(lambda t: np.sqrt(2) * np.asarray(t))

# family -> (model, oracle sampler)
_STREAM_CASES = {
    "gaussian": (dist.gaussian(), lambda rng, n: (rng.standard_normal(n), None)),
    "rademacher": (dist.rademacher(), lambda rng, n: (_oracle_packed_signs(rng, n), None)),
    "sym_exponential": (dist.sym_exponential(), lambda rng, n: (
        rng.exponential(scale=1.0 / math.sqrt(2.0), size=n) * _oracle_signs(rng, n),
        None)),
    "sym_weibull": (dist.sym_weibull(_WEIBULL_SHAPE), _oracle_weibull),
    "three_point": (dist.three_point(3.0), _oracle_three_point),
    "log_concave_from_tail": (_TAIL_MODEL, lambda rng, n: (
        _TAIL_MODEL.tail.quantile(rng.exponential(size=n)) * _oracle_signs(rng, n),
        None)),
}

_COUNTS = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 70_000))
_STEPS = st.lists(st.tuples(st.sampled_from(["sample", "integers", "normal"]), _COUNTS),
                  min_size=1, max_size=6)


def _within_one_ulp_of_the_power(got, want, raw):
    """got = scale * y * sign for y within 1 ulp of numpy's weibull draw."""
    mags = [_WEIBULL_SCALE * np.nextafter(raw, d) for d in (-np.inf, np.inf)]
    mag_ok = ((np.abs(got) == np.abs(want)) | (np.abs(got) == mags[0])
              | (np.abs(got) == mags[1]))
    return bool(np.all(mag_ok & (np.signbit(got) == np.signbit(want))))


@given(steps=_STEPS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_samplers_keep_the_oracle_stream(steps, seed):
    # interleaved with integers(0, 2) calls, which leave a half-word
    # buffered, and with gaussian draws, which do not use it; after every
    # step the generator state, buffer included, equals the oracle's, so
    # no sampler reads or changes the buffer
    for family, (model, oracle) in _STREAM_CASES.items():
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for kind, n in steps:
            if kind == "sample":
                got = model.sample_with(rng, n)
                want, raw = oracle(ref, n)
                assert got.dtype == want.dtype and got.shape == want.shape
                if raw is None:
                    assert got.tobytes() == want.tobytes(), family
                else:
                    assert _within_one_ulp_of_the_power(got, want, raw), family
            elif kind == "integers":
                assert np.array_equal(rng.integers(0, 2, size=n),
                                      ref.integers(0, 2, size=n))
            else:
                assert rng.standard_normal(n).tobytes() == ref.standard_normal(n).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state, (family, kind, n)


class TestSampling:
    def test_rademacher_values(self):
        vals = dist.rademacher().sample(RngStream(1, 2), 4)
        assert set(np.unique(vals)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("n", [0, 1, 65_537])
    def test_signs_match_the_direct_map(self, n):
        # the signs keep the bytes and the generator state of the raw-word
        # map: an odd n leaves its last high half unused, not buffered
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(2):
            got = dist._signs(rng, np.ones(n))
            want = _oracle_signs(ref, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [0, 2, 64, 6_784, 20_000, 65_536])
    def test_signs_are_integers_at_even_counts(self, n):
        # at an even count with no half waiting the signs, the PCG state and
        # every later draw are those of rng.integers(0, 2) * 2.0 - 1.0, which
        # draws by Lemire's method: at range 2 it takes the top bit of each
        # 32-bit output.  numpy keeps the last high half in "uinteger" once
        # used, where no draw reads it; the raw words leave it as it was.
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = dist._signs(rng, np.ones(n))
        want = ref.integers(0, 2, size=n) * 2.0 - 1.0
        assert got.tobytes() == want.tobytes()
        got_state, want_state = rng.bit_generator.state, ref.bit_generator.state
        assert got_state["state"] == want_state["state"]
        assert got_state["has_uint32"] == want_state["has_uint32"] == 0
        assert np.array_equal(rng.integers(0, 2, size=3), ref.integers(0, 2, size=3))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("family", list(_STREAM_CASES))
    @pytest.mark.parametrize("waiting", [False, True])
    def test_samplers_leave_the_half_word_buffer_alone(self, family, waiting):
        # neither a waiting 32-bit half nor an empty buffer is read, filled
        # or emptied, at odd and even counts
        rng = np.random.default_rng(5)
        if waiting:
            rng.integers(0, 2, size=1)
        before = rng.bit_generator.state
        assert before["has_uint32"] == int(waiting)
        for n in (1, 2, 3, 64, 1001):
            _STREAM_CASES[family][0].sample_with(rng, n)
            after = rng.bit_generator.state
            assert (after["has_uint32"], after["uinteger"]) == (
                before["has_uint32"], before["uinteger"]), n

    def test_signs_need_pcg64(self):
        with pytest.raises(TypeError, match="PCG64"):
            dist._signs(np.random.Generator(np.random.MT19937(0)), np.empty(3))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 63, 64, 65, 6_784, 65_536])
    def test_rademacher_packs_one_raw_bit_per_sign(self, n):
        # the signs are np.unpackbits of the next ceil(n/64) raw words, most
        # significant bit of each byte first, also written into a column of a
        # Fortran-ordered buffer, and the generator advances by those words
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = dist.rademacher().sample_with(rng, n)
        want = _oracle_packed_signs(ref, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        buf = np.zeros((n, 3), order="F")
        dist.rademacher().sample_with(rng, n, out=buf[:, 1])
        assert buf[:, 1].tobytes() == _oracle_packed_signs(ref, n).tobytes()
        assert not buf[:, [0, 2]].any()
        assert rng.random() == ref.random()

    def test_rademacher_leaves_a_buffered_half_word_waiting(self):
        # integers(0, 2) calls of odd length leave a 32-bit half buffered;
        # the packed sampler reads whole raw words around it, and the state,
        # buffer included, equals the oracle's after every step
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        model = dist.rademacher()
        for kind, n in [("integers", 1), ("sample", 65), ("integers", 3), ("sample", 7),
                        ("sample", 0), ("integers", 2), ("sample", 128), ("integers", 5)]:
            if kind == "sample":
                got = model.sample_with(rng, n)
                assert got.tobytes() == _oracle_packed_signs(ref, n).tobytes()
            else:
                assert np.array_equal(rng.integers(0, 2, size=n), ref.integers(0, 2, size=n))
            assert rng.bit_generator.state == ref.bit_generator.state, (kind, n)
        assert rng.bit_generator.state["has_uint32"] == 1

    def test_rademacher_uses_every_bit_of_a_word(self):
        # 64 signs take one raw word, and over 1e5 words each of the 64 bit
        # positions gives +1 at a frequency within 5 sigma of 1/2; a sampler
        # that reads part of each word fails
        rng, words, chunk = np.random.default_rng(11), 100_000, 10_000
        plus = np.zeros(64)
        for _ in range(words // chunk):
            plus += (dist.rademacher().sample_with(rng, 64 * chunk).reshape(chunk, 64)
                     > 0).sum(axis=0)
        assert np.max(np.abs(plus - words / 2)) <= 5 * math.sqrt(words / 4)
        ref = np.random.default_rng(11).bit_generator
        ref.advance(words)
        assert rng.bit_generator.state == ref.state

    def test_rademacher_needs_pcg64(self):
        # MT19937 fills only the low 32 bits of a raw word
        with pytest.raises(TypeError, match="PCG64"):
            dist.rademacher().sample_with(np.random.Generator(np.random.MT19937(0)), 64)

    def test_sample_into_column_view(self, model):
        # a column of a Fortran-ordered buffer is filled in place and returned,
        # with the bytes of the allocating call
        buf = np.zeros((1_001, 3), order="F")
        col = buf[:, 1]
        assert model.sample_with(np.random.default_rng(4), 1_001, out=col) is col
        want = model.sample_with(np.random.default_rng(4), 1_001)
        assert buf[:, 1].tobytes() == want.tobytes()
        assert not buf[:, [0, 2]].any()

    @pytest.mark.parametrize("out", [
        np.empty(9), np.empty(11), np.empty(10, dtype=np.float32),
        np.empty(10, dtype=np.int64), np.empty((10, 2))[:, 0], np.empty((10, 1)),
        np.broadcast_to(np.empty(10), (10,)), np.empty(10).tolist()],
        ids=["short", "long", "float32", "int64", "strided", "two_dim", "read_only",
             "list"])
    def test_bad_out_rejected_before_any_draw(self, model, out):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="float64 vector of length 10"):
            model.sample_with(rng, 10, out=out)
        assert rng.bit_generator.state == before

    def test_determinism(self, model):
        s = RngStream(123, 7)
        a = model.sample(s, 1000)
        b = model.sample(s, 1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self, model):
        # large count so rare-atom families differ with certainty
        a = model.sample(RngStream(123, 1), 100_000)
        b = model.sample(RngStream(123, 2), 100_000)
        assert not np.array_equal(a, b)

    def test_moments_match(self, model):
        n = 200_000
        x = model.sample(RngStream(99, 0), n)
        # mean 0 and variance 1 at 4 stderr
        assert abs(x.mean()) <= 4 * x.std() / math.sqrt(n)
        var = x.var()
        var_se = np.sqrt(max((x ** 2).var(), 1e-12) / n)
        # 16/n covers the O(1/n) bias when X^2 is (nearly) degenerate
        assert abs(var - 1.0) <= 4 * var_se + 16.0 / n

    def test_negative_count_rejected(self, model):
        with pytest.raises(ValueError):
            model.sample(RngStream(0, 0), -1)

    def test_tail_defined_family_sampler(self):
        m = dist.log_concave_from_tail(lambda t: np.sqrt(2) * np.asarray(t))
        assert m.moment(2) == pytest.approx(1.0, abs=1e-6)
        x = m.sample(RngStream(5, 0), 200_000)
        assert abs(x.var() - 1.0) < 0.02
        assert abs(x.mean()) < 0.01


class TestAlphaRegular:
    def test_rademacher_alpha1(self):
        assert dist.check_alpha_regular(dist.rademacher(), 1.0).passed

    def test_gaussian_alpha1(self):
        w = dist.check_alpha_regular(dist.gaussian(), 1.0)
        assert w.passed
        # extremal normalized ratio stays near sqrt(q/p) < 1
        q, p = w.witness_pair
        assert w.ratio <= math.sqrt(p / q) * 1.01

    def test_three_point_fails(self):
        w = dist.check_alpha_regular(dist.three_point(100.0), 5.0, (2, 4))
        assert not w.passed
        assert w.witness_pair == (2.0, 4.0)
        assert w.ratio == pytest.approx(10.0, rel=1e-9)

    def test_fail_witness_recomputable(self):
        m = dist.three_point(100.0)
        w = dist.check_alpha_regular(m, 5.0, (2, 4))
        q, p = w.witness_pair
        assert m.moment(p) >= w.level * (p / q) * m.moment(q) - 1e-9

    def test_monotone_in_alpha(self, model):
        grid = (2, 4, 8, 16)
        passing = [a for a in (1.0, 2.0, 4.0, 8.0, 16.0)
                   if dist.check_alpha_regular(model, a, grid).passed]
        # pass at alpha implies pass at any larger alpha
        if passing:
            lo = min(passing)
            assert all(a in passing for a in (2.0, 4.0, 8.0, 16.0) if a >= lo)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            dist.check_alpha_regular(dist.gaussian(), 1.0, (1.5, 4))

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            dist.check_alpha_regular(dist.gaussian(), 0.5)

    @pytest.mark.parametrize("grid, alpha, passed", [
        ((4.0,), 1.0, True),  # one point: no pair to compare
        ((2.0, 4.0), 5.0, False),
    ], ids=["one_point", "failing_pair"])
    def test_the_verdict_is_the_witness_truth_value(self, grid, alpha, passed):
        w = dist.check_alpha_regular(dist.three_point(100.0), alpha, grid)
        assert w.passed is passed and bool(w) is passed
        if len(grid) == 1:
            assert (w.witness_pair, w.ratio, w.threshold) == ((4.0, 4.0), 1.0, alpha)

    @pytest.mark.parametrize("check", [dist.check_alpha_regular, dist.check_speed_beta],
                             ids=["alpha", "beta"])
    def test_empty_grid_rejected(self, check):
        with pytest.raises(ValueError, match="^p_grid must be nonempty$"):
            check(dist.gaussian(), 2.0, [])


class TestSpeedBeta:
    def test_rademacher_always_fails(self):
        for beta in (2.0, 4.0, 8.0):
            w = dist.check_speed_beta(dist.rademacher(), beta)
            assert not w.passed
            assert w.ratio == pytest.approx(1.0)
            assert w.witness_pair[0] == 2.0

    def test_gaussian_beta4_fails_at_p2(self):
        w = dist.check_speed_beta(dist.gaussian(), 4.0)
        assert not w.passed
        assert w.witness_pair[0] == 2.0
        assert w.ratio == pytest.approx(105.0 ** 0.125, rel=1e-9)

    def test_gaussian_beta8_passes(self):
        w = dist.check_speed_beta(dist.gaussian(), 8.0)
        assert w.passed
        r2 = dist.gaussian().moment(16) / dist.gaussian().moment(2)
        assert r2 == pytest.approx(2027025.0 ** (1 / 16), rel=1e-9)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            dist.check_speed_beta(dist.gaussian(), 1.0)


@given(p=st.floats(min_value=1.0, max_value=60.0),
       q=st.floats(min_value=1.0, max_value=60.0))
@settings(max_examples=50, deadline=None)
def test_moment_monotonicity_property(p, q):
    g = dist.gaussian()
    if p <= q:
        assert g.moment(p) <= g.moment(q) * (1 + 1e-12)
    else:
        assert g.moment(q) <= g.moment(p) * (1 + 1e-12)


def test_descriptor_round_trip():
    for make in ALL_MODELS.values():
        m = make()
        d = dist.model_descriptor(m)
        m2 = dist.model_from_descriptor(d)
        assert m2.family == m.family
        assert m2.moment(4) == pytest.approx(m.moment(4), rel=1e-12)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        dist.model_from_descriptor({"family": "cauchy"})
