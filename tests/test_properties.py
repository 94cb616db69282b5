"""Property tests over simulate: physical ranges hold for any seeded model.

Cycle counts run past OBSERVABLE_BATCH, so samples on both sides of a batch
edge are covered, and both pulsed and free runs are drawn.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from leolab.dynamics import ParityKickSchedule, simulate
from leolab.leo import projector_leo
from leolab.models import DFS2_LEAK_LABELS, dfs2_leakage_model, hopping_model

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
