"""One scoring path, structurally (the numpy route of
:mod:`repro.core.similarity`): the kernel returns raw totals, Eq. 2's
normalisation is written once beside the oracle's scalar one, and one
function cuts pairs into score blocks.  The behavioural side — every
block a ``map_blocks`` task under every executor — is
``tests/pipeline/test_executors.py``.
"""

import ast
import re
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

from repro.core.corpus import WindowIndex

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@lru_cache(maxsize=None)
def _modules():
    """``(module path, source, syntax tree)`` of everything under ``src/repro``."""
    return tuple(
        (path.relative_to(SRC).as_posix(), source, ast.parse(source))
        for path in sorted(SRC.rglob("*.py"))
        for source in (path.read_text(),)
    )


def _functions(predicate):
    """``module::function`` of every innermost function under ``src/repro``
    that has a node ``predicate`` accepts."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if function is not None and predicate(node):
            found.add(f"{module}::{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, _, tree in _modules():
        visit(tree, module, None)
    return found


def _names(identifier):
    return lambda node: (
        (isinstance(node, ast.Name) and node.id == identifier)
        or (isinstance(node, ast.Attribute) and node.attr == identifier)
    )


def _stepped_range_over_a_len(node):
    """``range(0, len(x), step)`` — the shape of a loop that chunks."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Call)
        and getattr(node.args[1].func, "id", None) == "len"
    )


def test_the_kernel_knows_nothing_about_normalisation():
    source = (SRC / "core" / "kernels.py").read_text()
    assert "use_normalization" not in source
    assert "length_norm" not in source


def test_the_normalisation_is_written_once_beside_the_oracles():
    assert _functions(_names("size_norms")) == {"core/similarity.py::normalize"}
    assert _functions(_names("length_norm")) == {"core/similarity.py::_normalize"}
    assert _functions(_names("use_normalization")) == {
        "core/similarity.py::normalize",
        "core/similarity.py::_normalize",
    }


def test_one_function_cuts_pairs_into_score_blocks():
    chunkers = {
        where
        for where in _functions(_stepped_range_over_a_len)
        if not where.startswith("store/")  # column rows, not pairs
    }
    assert chunkers == {"core/similarity.py::_score_blocks"}
    # ... and it is the one place the block task is handed to an executor,
    # as the task is the one place the kernel is called.  The task lives
    # beside the kernel, outside the modules repro-lint lets touch a
    # ScoreCache: a worker-side cache call there is a finding.
    assert _functions(_names("score_pair_block")) == {
        "core/similarity.py::_score_blocks"
    }
    assert _functions(_names("score_pairs_batch")) == {
        "core/kernels.py::score_pair_block"
    }


def test_one_window_join_finds_the_common_windows():
    """A block's common windows come from one array join: no per-pair
    loop, no second intersection path, no per-entity dict beside the
    three directory arrays."""
    assert [field.name for field in fields(WindowIndex)] == [
        "windows", "offsets", "counts"
    ]
    source = (SRC / "core" / "kernels.py").read_text()
    tree = ast.parse(source)
    for gone in ("intersect1d", "isdisjoint", "_DICT_INTERSECT_MAX_WINDOWS", "slices"):
        assert not any(_names(gone)(node) for node in ast.walk(tree)), gone
    loops_over_pairs = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and any(_names("pairs")(part) for part in ast.walk(node.iter))
    ]
    assert loops_over_pairs == []
    # repro-lint's tree-clean test mutates the block task at this line.
    assert "\n    left, right, config = payload\n" in source


def test_one_pairing_path_scores_every_shape():
    """Every interaction is an unpadded tensor of its exact shape: no
    vector path, no power-of-two buckets, no padding mask, and the only
    loop of ``score_pairs_batch`` is the one over the shape groups cut
    from one sort of the shape codes."""
    source = (SRC / "core" / "kernels.py").read_text()
    for gone in (
        "_pow2ceil",
        "_segment_first_extreme",
        "_score_vector_interactions",
        "np.unique",
    ):
        assert gone not in source, gone
    for word in ("valid", "reduceat"):
        assert not re.search(rf"\b{word}\b", source), word
    [kernel] = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "score_pairs_batch"
    ]
    loops = [
        node for node in ast.walk(kernel) if isinstance(node, (ast.For, ast.While))
    ]
    assert len(loops) == 1
    assert ast.unparse(loops[0].iter) == "np.split(order, cuts) if order.size else ()"
    sorts = [node for node in ast.walk(kernel) if _names("argsort")(node)]
    assert len(sorts) == 1


def test_the_block_size_has_no_environment_override():
    for module, source, _ in _modules():
        assert "REPRO_SCORE_BLOCK_SIZE" not in source, module


def test_the_guards_have_teeth():
    assert "store/chunks.py" in {
        where.split("::")[0] for where in _functions(_stepped_range_over_a_len)
    }
    assert _functions(_names("map_blocks")) >= {
        "core/similarity.py::_score_blocks",
        "eval/harness.py::run_grid",
    }
