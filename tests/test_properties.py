"""Property tests: physical ranges hold for any seeded model, block
decomposition holds for any isometry code, and simulate's samples match a
one-state-at-a-time reference on dense frames from superposition states
and, through the overlap fidelity, on dfs2 models from random code states.

Cycle counts run past OBSERVABLE_BATCH, so samples on both sides of a batch
edge are covered, and both pulsed and free runs are drawn.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import per_sample_reference

from leolab.classify import decompose
from leolab.codes import CodeSubspace
from leolab.dynamics import ParityKickSchedule, simulate
from leolab.leo import exchange_dfs2_leo, projector_leo
from leolab.models import (
    DFS2_LEAK_LABELS,
    SystemBathModel,
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
def isometry_codes(draw, ambient=st.integers(1, 12)):
    """A code spanned by the orthonormalized columns of a seeded Gaussian."""
    ambient = draw(ambient)
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


@st.composite
def dense_runs(draw):
    """A from_terms model on a random isometry code (ambient 3-8, any code
    dim), its frame dense, with a bath of 1-4 and a seeded free bath term,
    and a random normalized superposition of the code's basis states."""
    code = draw(isometry_codes(ambient=st.integers(3, 8)))
    bath_dim = draw(st.integers(1, 4))
    seeds = iter(draw(st.lists(st.integers(0, 2**32 - 1), min_size=8, max_size=8)))
    terms = [(draw(st.floats(0.05, 1.0)),
              random_hermitian(code.ambient_dim, next(seeds)),
              random_hermitian(bath_dim, next(seeds)))
             for _ in range(draw(st.integers(1, 3)))]
    free_bath = random_hermitian(bath_dim, next(seeds))
    model = SystemBathModel.from_terms(code, terms, free_bath=free_bath)
    rng = np.random.default_rng(next(seeds))
    coeffs = (rng.standard_normal(code.code_dim)
              + 1j * rng.standard_normal(code.code_dim))
    return model, code.basis @ (coeffs / np.linalg.norm(coeffs))


@settings(max_examples=30, deadline=None)
@given(run=dense_runs(), n=st.integers(0, 300), tau=st.floats(1e-3, 0.5),
       pulsed=st.booleans())
def test_superposition_samples_match_reference(run, n, tau, pulsed):
    # dense frames and superposition states exercise every cross term of
    # the frame contractions and of the qubit fidelity kernel
    model, state = run
    schedule = ParityKickSchedule(n, tau, projector_leo(model.code) if pulsed else None)
    report = simulate(model, schedule, state)
    leaks, fids = per_sample_reference(model, schedule, state)
    # both sides step states whose rounding grows to about d = (n + 1) J eps
    # in norm, which moves a leakage l = |x|^2 by up to 2 sqrt(l) d + d^2;
    # pulsed runs at tau = 1e-3 leak only ~1e-12 and were seen 1e-8 l
    # (2.6e-20) apart, past a plain rtol of 1e-9
    leaks = np.array(leaks)
    got = np.array([s.leakage_population for s in report.samples])
    d = (n + 1) * model.joint_dim * np.finfo(float).eps
    assert np.all(np.abs(got - leaks) <= 1e-9 * leaks + 2 * np.sqrt(leaks) * d + d * d)
    np.testing.assert_allclose([s.code_fidelity for s in report.samples],
                               fids, rtol=0.0, atol=1e-8)


@st.composite
def dfs2_overlap_runs(draw):
    """A dfs2 model (one label or a pair, shared or split bath, with or
    without the collective term, bath 1-4), always decoherence-free, and a
    random normalized complex code state."""
    model = dfs2_leakage_model(
        draw(st.lists(st.sampled_from(DFS2_LEAK_LABELS), min_size=1, max_size=2,
                      unique=True)),
        g=draw(st.floats(0.05, 0.5)),
        bath_seed=draw(st.integers(0, 2**32 - 1)),
        bath_dim=draw(st.integers(1, 4)),
        shared_bath=draw(st.booleans()),
        collective_strength=draw(st.sampled_from([0.0, 0.3])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return model, model.code.basis @ (x / np.linalg.norm(x))


@settings(max_examples=60, deadline=None)
@given(run=dfs2_overlap_runs(), n=st.sampled_from([0, 255, 256, 257, 600]),
       pulsed=st.booleans())
def test_overlap_fidelity_matches_reference(run, n, pulsed):
    # the fidelity of a decoherence-free run is ||x^dag A||^2 / ||x||^2;
    # the reference steps a target and takes a nuclear norm per sample
    model, state = run
    assert model.decoherence_free
    schedule = ParityKickSchedule(n, 0.9 / max(n, 1),
                                  exchange_dfs2_leo() if pulsed else None)
    report = simulate(model, schedule, state)
    leaks, fids = per_sample_reference(model, schedule, state)
    np.testing.assert_allclose(report.leakage_population, leaks,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(report.code_fidelity, fids, rtol=1e-12, atol=1e-12)
