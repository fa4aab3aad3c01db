"""Seeded streams: ``derive_rng`` hands ``SeedSequence`` the words that the
Python list it was once given converts to, so every stream keeps its draws."""

import numpy as np
import pytest

from oracles import derive_rng_from_list
from wfaug.seeding import derive_rng

# the root's high word is absent below 2**32 and present from it up; a
# negative root wraps to 64 bits
ROOTS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, -1]
PATHS = [(), ("template", 3), ("sample", -1, -2 ** 40),
         (2 ** 32, 2 ** 32 + 7, 2 ** 64 - 1), (np.int64(-5), np.uint32(9)),
         ("", "é", 0)]


@pytest.mark.parametrize("path", PATHS, ids=repr)
@pytest.mark.parametrize("root", ROOTS)
def test_stream_is_the_list_entropy_stream(root, path):
    got, want = derive_rng(root, *path), derive_rng_from_list(root, *path)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2 ** 63, 4).tobytes() == want.integers(
        0, 2 ** 63, 4).tobytes()


def test_path_element_of_another_type_is_refused():
    with pytest.raises(TypeError, match="must be int or str, got float"):
        derive_rng(0, 1.5)
