"""Generator must match the published splitmix64 sequence and stay
bit-identical between scalar and vectorized paths."""

import numpy as np

from docprune.rng import GAMMA, Rng, init_linear

# first outputs of splitmix64 seeded with 0, from the reference C listing
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_known_answer_seed0():
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(5)] == SEED0_OUTPUTS


def test_state_advances_by_gamma():
    rng = Rng(12345)
    before = rng.state
    rng.next_u64()
    assert rng.state == (before + GAMMA) % (1 << 64)


def test_vectorized_matches_scalar():
    a, b = Rng(99), Rng(99)
    bulk = a.uniforms(1000)
    singles = np.array([b.uniform() for _ in range(1000)])
    assert bulk.shape == (1000,)
    np.testing.assert_array_equal(bulk, singles)
    # both generators must end in the same state
    assert a.state == b.state


def test_uniform_range_and_spread():
    draws = Rng(7).uniforms(10000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0
    assert 0.45 < draws.mean() < 0.55


def test_uniform_bounds_scale():
    draws = Rng(3).uniforms(1000, -2.0, 5.0)
    assert draws.min() >= -2.0
    assert draws.max() < 5.0


def test_derive_is_independent_of_parent_use():
    parent = Rng(42)
    child_before = parent.derive("x").uniforms(4)
    parent.next_u64()
    child_after = parent.derive("x").uniforms(4)
    # derive depends on parent state, which advanced
    assert not np.array_equal(child_before, child_after)

    # but two derives from the same state and tag agree
    p1, p2 = Rng(42), Rng(42)
    np.testing.assert_array_equal(p1.derive("x").uniforms(4),
                                  p2.derive("x").uniforms(4))


def test_derive_tags_give_distinct_streams():
    parent = Rng(42)
    a = parent.derive("a").uniforms(8)
    b = parent.derive("b").uniforms(8)
    c = parent.derive(0).uniforms(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_randint_and_choice_deterministic():
    assert [Rng(5).randint(10) for _ in range(1)] == [Rng(5).randint(10)]
    seq = ["p", "q", "r"]
    assert Rng(5).choice(seq) == Rng(5).choice(seq)


def test_init_linear_bounds_and_draw_order():
    w, b = init_linear(Rng(1), 16, 8)
    bound = 1.0 / np.sqrt(16)
    assert w.shape == (16, 8) and b.shape == (8,)
    assert np.all(np.abs(w) <= bound) and np.all(np.abs(b) <= bound)
    # the weight's draws, then the bias's, from one stream: every seeded
    # model's bytes rest on this order
    np.testing.assert_array_equal(
        np.concatenate([w.ravel(), b]),
        Rng(1).uniforms(16 * 8 + 8, -bound, bound))
