"""Property tests: physical ranges hold for any seeded model, and block
decomposition holds for any isometry code.

Cycle counts run past OBSERVABLE_BATCH, so samples on both sides of a batch
edge are covered, and both pulsed and free runs are drawn.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leolab.classify import decompose
from leolab.codes import CodeSubspace
from leolab.dynamics import ParityKickSchedule, simulate
from leolab.leo import projector_leo
from leolab.models import (
    DFS2_LEAK_LABELS,
    dfs2_leakage_model,
    hopping_model,
)
from leolab.opalg import random_hermitian

models = st.one_of(
    st.builds(
        dfs2_leakage_model,
        leak_set=st.lists(st.sampled_from(DFS2_LEAK_LABELS), min_size=1,
                          max_size=3),
        g=st.floats(0.0, 1.0),
        bath_seed=st.integers(0, 2**32 - 1),
        bath_dim=st.integers(1, 6),
    ),
    st.builds(
        hopping_model,
        n_levels=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
        g=st.floats(0.0, 1.0),
        bath_dim=st.integers(1, 6),
    ),
)


@settings(max_examples=40, deadline=None)
@given(model=models, n=st.integers(0, 300), tau=st.floats(1e-3, 1.0),
       pulsed=st.booleans(), code_index=st.integers(0, 1))
def test_simulate_stays_physical(model, n, tau, pulsed, code_index):
    pulse = projector_leo(model.code) if pulsed else None
    report = simulate(model, ParityKickSchedule(n, tau, pulse),
                      model.code.basis[:, code_index])
    assert len(report.samples) == n + 1
    assert report.samples[0].code_fidelity == 1.0
    for s in report.samples:
        assert 0.0 <= s.leakage_population <= 1.0
        assert 0.0 <= s.code_fidelity <= 1.0


@st.composite
def isometry_codes(draw):
    """A code spanned by the orthonormalized columns of a seeded Gaussian."""
    ambient = draw(st.integers(1, 12))
    code_dim = draw(st.integers(1, ambient))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = (rng.standard_normal((ambient, code_dim))
         + 1j * rng.standard_normal((ambient, code_dim)))
    return CodeSubspace("random", np.linalg.qr(g)[0])


@settings(max_examples=50, deadline=None)
@given(code=isometry_codes(), seed=st.integers(0, 2**32 - 1))
def test_decompose_reconstructs(code, seed):
    h = random_hermitian(code.ambient_dim, seed)
    dec = decompose(h, code)
    total = dec.e_part.mat + dec.eperp_part.mat + dec.l_part.mat
    assert np.linalg.norm(total - h.mat) <= 1e-12
