"""The split of a model's joint Hamiltonian, formed explicitly for tests.

SystemBathModel stores only H_joint and derives its leakage-free part as
the code and complement sub-blocks of each sector of H_joint in the code
frame F x I, F = [code basis | complement basis], formed by system-index
contractions, and simulate samples in that frame.
This helper forms the pieces in product coordinates from full kron(P, I)
and kron(Q, I) products instead, so tests can check the model and its
runs against an independent construction.
"""

import numpy as np


def explicit_split(model):
    """(H_c, H_perp, H_l) of model.h_joint as joint x joint arrays:
    (P x I) H (P x I), (Q x I) H (Q x I) and the cross terms."""
    eye = np.eye(model.bath_dim)
    p = np.kron(model.code.projector, eye)
    q = np.kron(model.code.complement_projector, eye)
    h = model.h_joint.mat
    return p @ h @ p, q @ h @ q, p @ h @ q + q @ h @ p
