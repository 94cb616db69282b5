"""Models whose sectors pair, and models whose sectors must not, for tests.

A sector block [[A, G], [G^dag, B]] of H' (code rows first) pairs when it
has as many code as complement rows, A == B, and zeta G is Hermitian for
zeta = 1 or 1j, all compared exactly. MODELS maps a name to (builder,
the zeta of each sector in the order of model.spectra, None where the sector
must not pair).
"""

import numpy as np

from leolab.codes import dfs2_dephasing
from leolab.models import SystemBathModel, dfs2_leakage_model
from leolab.opalg import Operator, pauli_string, random_hermitian


def dfs2(labels, bath_dim=4, collective=0.0):
    return lambda: dfs2_leakage_model(labels, g=0.2, bath_seed=3, bath_dim=bath_dim,
                                      collective_strength=collective)


def code_acting_pair():
    """dfs2 XI with a Z2 x B term: Z2 keeps XI's two sectors and has the
    same sign on each sector's code and complement rows, so both sectors
    pair, but their code blocks differ by the sign of B, so the code block
    of H' is not I_k x h and simulate steps its targets."""
    return SystemBathModel.from_terms(
        dfs2_dephasing(), [(0.2, pauli_string("XI"), random_hermitian(4, 12)),
                           (0.2, pauli_string("IZ"), random_hermitian(4, 11))],
        free_bath=random_hermitian(4, 13))


def one_ulp_off():
    """dfs2 XI from from_terms with one entry of G, H_joint[|01> x bath 0,
    |11> x bath 1], moved by one ulp and its mirror left alone: G is then
    neither Hermitian nor anti-Hermitian in the sector that holds it, and
    the two sectors stop being copies; the other sector still pairs."""
    m = SystemBathModel.from_terms(
        dfs2_dephasing(), [(0.2, pauli_string("XI"), random_hermitian(4, 3))],
        free_bath=random_hermitian(4, 4))
    h = m.h_joint.mat.copy()
    h[4, 13] = complex(np.nextafter(h[4, 13].real, np.inf), h[4, 13].imag)
    return SystemBathModel(m.code, Operator(h, frozenset({"hermitian"})))


MODELS = {
    "XI": (dfs2(["XI"]), [1]),  # two sectors that are copies
    "IX": (dfs2(["IX"], bath_dim=3), [1]),
    "XZ": (dfs2(["XZ"]), [1, 1]),
    "XI_XZ": (dfs2(["XI", "XZ"]), [1, 1]),
    "YZ": (dfs2(["YZ"]), [1j]),
    "YI": (dfs2(["YI"], bath_dim=2), [1j, 1j]),
    "XI_IZ_code_acting": (code_acting_pair, [1, 1]),
    "XI_collective": (dfs2(["XI"], collective=0.3), [None, None]),
    "XI_YI": (dfs2(["XI", "YI"]), [None, None]),
    "one_ulp_off": (one_ulp_off, [None, 1]),
}
