import pytest

from privsynth.errors import ValidationError
from privsynth.surrogate import make_surrogate


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(n_records=100), "n_records too small for the class layout"),
    (dict(n_records=200, minority_fraction=0.6),
     "class fractions leave too little data for the middle classes"),
], ids=["too-few-records", "minority-crowds-out-the-middle"])
def test_guard_rejects(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        make_surrogate(**kwargs)
