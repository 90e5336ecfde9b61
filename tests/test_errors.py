"""Every exception class rigid3d exports survives pickle, so an error raised in a worker process re-raises as itself."""

import pickle

import pytest

import rigid3d as r

EXCEPTIONS = sorted(name for name, obj in vars(r).items() if isinstance(obj, type) and issubclass(obj, BaseException))
# the classes whose constructor takes fields rather than a message
FIELDS = {"ParseError": (3, "bad"), "NonUnitQuaternion": (2, 1.5)}


def test_the_classes_with_fields_are_exported():
    assert set(FIELDS) <= set(EXCEPTIONS)


@pytest.mark.parametrize("name", EXCEPTIONS)
def test_pickle_gives_back_the_type_message_and_fields(name):
    exc = getattr(r, name)(*FIELDS.get(name, ("message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
