import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coaug.rng import _MASK, GOLDEN, RngStream, finalize64, fnv1a64, mix64

# published reference outputs of the splitmix64 generator seeded with 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vectors():
    stream = RngStream(0)
    assert tuple(stream.next_u64() for _ in range(3)) == SPLITMIX64_SEED0


def test_fnv1a64_reference_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_same_seed_and_id_gives_identical_stream():
    a = RngStream.for_record(123, "record-9")
    b = RngStream.for_record(123, "record-9")
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_ids_give_different_streams():
    a = RngStream.for_record(123, "x")
    b = RngStream.for_record(123, "y")
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_mix64_avalanche_differs_on_either_argument():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0, 0) != mix64(0, 1)
    assert finalize64(0) == 0  # fixed point of the raw finalizer


def test_random_in_unit_interval():
    stream = RngStream(42)
    values = [stream.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_randrange_bounds_and_coverage():
    stream = RngStream(7)
    draws = [stream.randrange(5) for _ in range(500)]
    assert set(draws) == {0, 1, 2, 3, 4}


def test_permutation_is_bijection():
    stream = RngStream(3)
    for n in (1, 2, 5, 9):
        assert sorted(stream.permutation(n)) == list(range(n))


def test_gauss_moments_and_determinism():
    a = RngStream(99)
    b = RngStream(99)
    xs = [a.gauss(0.0, 1.0) for _ in range(4000)]
    assert [b.gauss(0.0, 1.0) for _ in range(10)] == xs[:10]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.06
    assert abs(var - 1.0) < 0.1
    assert all(math.isfinite(x) for x in xs)


def _bits(xs):
    # float.hex tells -0.0 from 0.0, which == does not
    return [x.hex() for x in xs]


def _gauss_n_agrees_with_gauss(stream: RngStream, n: int, sigma: float) -> None:
    reference = RngStream(stream.state)
    reference._gauss_spare = stream._gauss_spare
    expected = [reference.gauss(0.0, sigma) for _ in range(n)]
    assert _bits(stream.gauss_n(n, sigma)) == _bits(expected)
    assert stream.state == reference.state
    assert stream._gauss_spare == reference._gauss_spare


@settings(max_examples=200, deadline=None)
@given(state=st.integers(0, _MASK), n=st.integers(0, 300),
       sigma=st.floats(-10, 10), pending=st.booleans())
def test_gauss_n_equals_repeated_gauss(state, n, sigma, pending):
    stream = RngStream(state)
    if pending:
        stream.gauss(0.0, 1.0)  # leaves a spare for the next draw
        assert stream._gauss_spare is not None
    _gauss_n_agrees_with_gauss(stream, n, sigma)


def test_gauss_n_rejects_a_zero_uniform():
    stream = RngStream((-GOLDEN) & _MASK)
    assert RngStream(stream.state).random() == 0.0
    for n in (0, 1, 2, 5):
        _gauss_n_agrees_with_gauss(RngStream((-GOLDEN) & _MASK), n, 0.5)


def test_gauss_n_keeps_the_sign_rule_of_gauss():
    # 0.0 + sigma * z, never sigma * z alone: sigma -0.0 gives 0.0
    stream = RngStream(5)
    assert _bits(stream.gauss_n(4, -0.0)) == _bits([0.0] * 4)


def _stream(state: int, pending: bool) -> RngStream:
    stream = RngStream(state)
    if pending:
        stream._gauss_spare = -1.25  # as if a gauss call had left its sine
    return stream


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("n", [8, 15, 224, 230])
@pytest.mark.parametrize("k", [3, 5, 223])
def test_gauss_n_redraws_a_zero_inner_u1(k, n, pending):
    # the k-th draw after this state is finalize64(0) = 0: for odd k a u1;
    # n 8 and 15 end before draw 223, so they take the packed path, odd n included
    state = (-k * GOLDEN) & _MASK
    probe = RngStream(state)
    assert [probe.random() for _ in range(k)][-1] == 0.0
    _gauss_n_agrees_with_gauss(_stream(state, pending), n, 0.5)


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("sigma", [0.5, -0.5])
def test_gauss_n_zero_u2_gives_a_zero_sine(pending, sigma):
    # the 4th draw is 0.0, a u2: theta is 0, its sine 0.0 and its cosine r
    _gauss_n_agrees_with_gauss(_stream((-4 * GOLDEN) & _MASK, pending), 6, sigma)


def _random_n_agrees_with_random(state: int, n: int) -> None:
    stream, reference = RngStream(state), RngStream(state)
    expected = [reference.random() for _ in range(n)]
    assert _bits(stream.random_n(n)) == _bits(expected)
    assert stream.state == reference.state


@settings(max_examples=200, deadline=None)
@given(state=st.integers(0, _MASK), n=st.integers(0, 300))
def test_random_n_equals_repeated_random(state, n):
    _random_n_agrees_with_random(state, n)


def test_random_n_leaves_a_pending_gauss_spare():
    stream = RngStream(11)
    stream.gauss(0.0, 1.0)
    spare = stream._gauss_spare
    stream.random_n(5)
    assert stream._gauss_spare == spare


def _shuffled(state: int, n: int) -> tuple[list[int], int]:
    """The in-place Fisher-Yates shuffle of ``list(range(n))`` from *state*,
    one ``randrange`` call a draw, and the state after it."""
    stream = RngStream(state)
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return items, stream.state


@settings(max_examples=300, deadline=None)
@given(state=st.integers(0, _MASK), n=st.integers(0, 20))
def test_permutation_equals_the_shuffle(state, n):
    stream = RngStream(state)
    assert (stream.permutation(n), stream.state) == _shuffled(state, n)


def _unxorshift(z: int, shift: int) -> int:
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _unfinalize64(z: int) -> int:
    """The input that ``finalize64`` maps to z: each xorshift and odd
    multiply of the finalizer undone, last first."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK
    return _unxorshift(z, 30)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 20), data=st.data())
def test_permutation_redraws_an_output_above_the_rejection_limit(n, data):
    # draw k of the shuffle is randrange(n - k + 1): force it at or above its limit
    k = data.draw(st.integers(1, n - 1))
    bound = n - k + 1
    limit = (1 << 64) - (1 << 64) % bound
    if limit == 1 << 64:  # a power of two rejects nothing
        return
    u = data.draw(st.integers(limit, _MASK))
    state = (_unfinalize64(u) - k * GOLDEN) & _MASK
    probe = RngStream(state)
    assert [probe.next_u64() for _ in range(k)][-1] == u
    stream = RngStream(state)
    assert (stream.permutation(n), stream.state) == _shuffled(state, n)
