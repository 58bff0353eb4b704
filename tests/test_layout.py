import numpy as np
import pytest
import scipy.sparse as sp

from maskdispatch.market import (
    _DENSE_CELL_LIMIT, assemble_ed_lp, build_ed_blocks, gen_synthetic,
    place_blocks,
)
from maskdispatch.masking import build_transformed_ed
from test_masking import masked_submissions, party_keys


@pytest.mark.parametrize("which", ["threebus", "synthetic-2h"])
def test_masked_layout_extends_clear_layout(which, threebus):
    system = threebus if which == "threebus" else gen_synthetic(6, 2, 2, 2, 2, seed=4)
    blocks = build_ed_blocks(system)
    _, clear = assemble_ed_lp(blocks)
    tlp = build_transformed_ed(masked_submissions(blocks, party_keys(blocks, seed=3)))
    for owner in [e.owner for e in blocks.gencos + blocks.lses] + ["theta"]:
        assert tlp.var_spans[owner] == clear.var_spans[owner]
    assert tlp.row_spans == clear.row_spans
    # the masked problem only adds slack columns after the clear ones
    assert tlp.n_structural == clear.n_vars
    assert tlp.problem.n_rows == clear.n_rows


def test_place_blocks_small_shape_is_dense():
    pieces = [(0, 0, np.array([[1.0, 2.0], [3.0, 4.0]])),
              (2, 1, -sp.identity(2, format="csr"))]
    A = place_blocks(pieces, (4, 3))
    assert isinstance(A, np.ndarray)
    np.testing.assert_array_equal(A, [[1, 2, 0], [3, 4, 0], [0, -1, 0], [0, 0, -1]])


def test_place_blocks_switches_to_csr_above_the_cell_limit():
    rng = np.random.default_rng(0)
    dense = rng.uniform(-1, 1, size=(50, 40))
    sparse = sp.random(300, 200, density=0.05, random_state=1, format="csr")
    corner = sp.random(501, 200, density=0.02, random_state=2, format="csc")
    pieces = [(0, 0, dense), (100, 500, sparse), (1500, 800, -corner),
              (1990, 0, -dense[:11, :10])]
    expected = np.zeros((2001, 1000))
    for r, c, block in pieces:
        block = block.toarray() if sp.issparse(block) else block
        expected[r:r + block.shape[0], c:c + block.shape[1]] = block

    assert 2000 * 1000 == _DENSE_CELL_LIMIT
    assert isinstance(place_blocks(pieces[:2], (2000, 1000)), np.ndarray)

    A = place_blocks(pieces, (2001, 1000))
    assert sp.issparse(A) and A.format == "csr"
    assert A.shape == (2001, 1000)
    np.testing.assert_array_equal(A.toarray(), expected)
