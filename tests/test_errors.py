import pickle

import pytest

from goxlens import errors

# constructor arguments of every GoxlensError subclass with its own __init__
ARGUMENTS = {
    errors.PairingError: ([f"t{i}" for i in range(12)],),
    errors.SingularityError: ("moment matrix is singular", ["wash", "total"]),
    errors.StationarityError: ({"wash": -1.0, "total": None},),
    errors.TrainingDivergence: ("loss went to nan", [1.0, float("inf")]),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_with_arguments_is_listed():
    custom = {c for c in _subclasses(errors.GoxlensError) if "__init__" in vars(c)}
    assert custom == set(ARGUMENTS)


@pytest.mark.parametrize("cls", [errors.GoxlensError, *_subclasses(errors.GoxlensError)])
def test_errors_survive_pickling(cls):
    err = cls(*ARGUMENTS.get(cls, ("plain message",)))
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is cls
    assert str(again) == str(err)
    assert again.__dict__ == err.__dict__
