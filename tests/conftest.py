import pytest

from polyconduche.conduche import full_extension
from polyconduche.fixtures import (
    chain3_extension,
    eh_extension,
    idem_category,
    parallel_pair_category,
    path2_category,
)
from polyconduche.terms import enumerate_terms


@pytest.fixture(scope="session")
def small_terms():
    """(extension, term) for every term of size at most 3 over the five
    extensions of acceptance criterion 5: 23,682 terms."""
    extensions = [
        eh_extension(),
        chain3_extension(),
        full_extension(path2_category(), 1),
        full_extension(parallel_pair_category(), 2),
        full_extension(idem_category(), 2),
    ]
    return [(ext, t) for ext in extensions for t in enumerate_terms(ext, 3)[0]]
