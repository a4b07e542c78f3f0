import numpy as np
import pytest

from poissonridge.phantoms import sample_poisson
from poissonridge.seeding import derive_rng, derive_seed_sequence


def test_same_inputs_same_stream():
    a = derive_rng(7, "stage-a").normal(size=16)
    b = derive_rng(7, "stage-a").normal(size=16)
    assert (a == b).all()


def test_stage_and_index_separate_streams():
    base = derive_rng(7, "stage-a").normal(size=16)
    other_stage = derive_rng(7, "stage-b").normal(size=16)
    other_index = derive_rng(7, "stage-a", index=1).normal(size=16)
    other_seed = derive_rng(8, "stage-a").normal(size=16)
    assert not (base == other_stage).all()
    assert not (base == other_index).all()
    assert not (base == other_seed).all()


def test_seed_sequence_is_deterministic_object():
    s1 = derive_seed_sequence(0, "x", 3)
    s2 = derive_seed_sequence(0, "x", 3)
    assert s1.entropy == s2.entropy


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        derive_rng(-1, "stage")


def test_unicode_stage_names_are_stable():
    # hashing the stage name must not depend on interning or id()
    a = derive_rng(0, "mc-sample").integers(0, 1 << 30, size=4)
    b = derive_rng(0, "mc-" + "sample").integers(0, 1 << 30, size=4)
    assert (a == b).all()


@pytest.mark.parametrize("seed, index", [(1.5, 0), (1.0, 0), (0, 2.9),
                                         (0, 2.0), ("1", 0),
                                         (np.float64(3.0), 0)])
def test_non_integer_seed_or_index_rejected(seed, index):
    # int() used to truncate these onto the stream of another seed/index
    with pytest.raises(ValueError, match="must be an integer"):
        derive_seed_sequence(seed, "x", index)
    with pytest.raises(ValueError, match="must be an integer"):
        derive_rng(seed, "x", index=index)


def test_numpy_integer_seed_and_index_accepted():
    a = derive_rng(np.int64(7), "stage-a", index=np.uint8(2)).normal(size=4)
    b = derive_rng(7, "stage-a", index=2).normal(size=4)
    assert (a == b).all()


def test_sample_poisson_rejects_non_integer_seed():
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_poisson(np.ones((4, 4)), seed=2.7)


@pytest.mark.parametrize("stage", [5, None, b"mc-sample"])
def test_non_str_stage_rejected(stage):
    # an int stage used to fail inside the hash with AttributeError
    with pytest.raises(ValueError, match="stage must be a str"):
        derive_seed_sequence(0, stage)
    with pytest.raises(ValueError, match="stage must be a str"):
        derive_rng(0, stage)
