import dataclasses
import types

import pytest

import leolab


def test_all_names_are_bound_and_unique():
    assert len(set(leolab.__all__)) == len(leolab.__all__)
    assert [n for n in leolab.__all__ if not hasattr(leolab, n)] == []


def test_all_holds_no_module_and_no_private_name():
    # __all__ is read off the imports: the submodules they bind are not in it
    assert [n for n in leolab.__all__ if n.startswith("_")
            or isinstance(getattr(leolab, n), types.ModuleType)] == []
    assert {"classify", "codes", "dynamics", "leo", "models",
            "opalg"} <= set(vars(leolab))
    assert leolab.__all__ == sorted(leolab.__all__)


STORED_FIELDS = [
    # the distance to the limit is formed on first read, by the last field
    (leolab.SimulationReport, ["tau", "leakage_population", "code_fidelity",
                               "_distance_to_limit"]),
    (leolab.SweepTable, ["rows"]),
    (leolab.LeoVerification, ["phase", "structural_residual", "probe_checks"]),
    (leolab.ProbeCheck, ["anticommutator_leakage", "commutator_code",
                         "commutator_outside"]),
    (leolab.SpinSector, ["spin", "basis"]),
    (leolab.BlockDecomposition, ["e_part", "eperp_part", "l_part"]),
]


@pytest.mark.parametrize("cls,fields", STORED_FIELDS,
                         ids=[cls.__name__ for cls, _ in STORED_FIELDS])
def test_results_store_no_echoed_inputs(cls, fields):
    # everything else on these types is derived from the stored fields
    assert [f.name for f in dataclasses.fields(cls)] == fields
