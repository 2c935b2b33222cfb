import types

import pytest

import inexactfp
import inexactfp.problems


@pytest.mark.parametrize("package", [inexactfp, inexactfp.problems], ids=lambda p: p.__name__)
def test_all_lists_exactly_the_public_names(package):
    public = {
        name for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = [name for name in package.__all__ if name != "__version__"]
    assert len(set(package.__all__)) == len(package.__all__)
    assert sorted(listed) == sorted(public)
    for name in package.__all__:
        assert hasattr(package, name), name
