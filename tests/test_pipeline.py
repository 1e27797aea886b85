import dataclasses

import numpy as np
import pytest

from gamlp.config import TrainConfig
from gamlp.data import generate_sbm
from gamlp.pipeline import build_label_stack, load_stacks, preprocess
from gamlp.propagation import FingerprintMismatch


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm([15, 15], 0.3, 0.05, 4, 2.0, seed=3)


def _config(cache_dir, **overrides):
    return TrainConfig(cache_dir=str(cache_dir), hops=3, **overrides).validate()


def test_load_stacks_refuses_label_cache_of_another_fixed_alpha(sbm, tmp_path):
    # the label cache file name and fingerprint leave out fixed_alpha, so only
    # the scheme recorded in the header can tell this cache is stale
    written = _config(tmp_path, residual_scheme="fixed", fixed_alpha=0.7)
    preprocess(sbm, written)
    stale = dataclasses.replace(written, fixed_alpha=0.2)
    with pytest.raises(FingerprintMismatch, match="fixed_alpha=0.7"):
        load_stacks(sbm, stale)
    with pytest.warns(UserWarning, match="fixed_alpha=0.7"):
        _, forced = load_stacks(sbm, stale, force=True)
    assert forced.scheme.fixed_alpha == 0.7

    preprocess(sbm, stale)
    _, label_stack = load_stacks(sbm, stale)
    fresh = build_label_stack(sbm, stale)
    for cached, built in zip(label_stack.smoothed, fresh.smoothed):
        assert np.allclose(cached, built, atol=1e-6)


def test_fixed_alpha_is_ignored_by_other_schemes(sbm, tmp_path):
    written = _config(tmp_path, residual_scheme="cosine", fixed_alpha=0.7)
    preprocess(sbm, written)
    _, label_stack = load_stacks(sbm, dataclasses.replace(written, fixed_alpha=0.2))
    assert label_stack.scheme.kind == "cosine"
