import doctest

import pytest

from dahalink import cli, daha, exactfield, exactlinalg, leonard

# each layer with the number of examples in its docstrings
EXAMPLES = {exactfield: 18, exactlinalg: 2, leonard: 0, daha: 0, cli: 0}


@pytest.mark.parametrize("layer", EXAMPLES, ids=lambda m: m.__name__.split(".")[-1])
def test_docstring_examples_pass(layer):
    assert doctest.testmod(layer) == (0, EXAMPLES[layer])
