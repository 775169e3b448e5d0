"""Dataset splits built on first read, and what keys their stored digests.

A dataset's train/val splits are rendered only when something reads
them, from label-derived streams, so neither pickling nor read order can
change their bytes.  The store keys a dataset's split digests by its
recipe and the source of the packages synthesis runs on; the AST scan
here keeps that package list complete.
"""

from __future__ import annotations

import ast
import os
import pickle

import pytest

import repro
from repro.datasets.mhealth import make_mhealth, mhealth_spec
from repro.datasets.pamap2 import make_pamap2
from repro.errors import DatasetError
from repro.store.keys import SYNTHESIS_PACKAGES, dataset_digests_key

SMALL = dict(
    train_windows_per_activity=3,
    val_windows_per_activity=2,
    n_train_subjects=2,
    n_eval_subjects=1,
)


def _split_bytes(split):
    return {location: (w.X.tobytes(), w.y.tobytes()) for location, w in split.items()}


class TestSplitsOnFirstRead:
    def test_pickled_before_any_read_yields_identical_splits(self):
        dataset = make_pamap2(seed=5, **SMALL)
        blob = pickle.dumps(dataset)
        copy = pickle.loads(blob)
        # Opposite read orders: each split has its own stream.
        val = _split_bytes(copy.val)
        train = _split_bytes(copy.train)
        assert train == _split_bytes(dataset.train)
        assert val == _split_bytes(dataset.val)
        rendered = sum(w.X.nbytes for w in dataset.train.values())
        assert len(blob) < rendered

    def test_split_is_rendered_once(self):
        dataset = make_mhealth(seed=5, **SMALL)
        assert dataset.train is dataset.train

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(SMALL, train_windows_per_activity=0),
            dict(SMALL, val_windows_per_activity=0),
            dict(SMALL, n_eval_subjects=0),
        ],
    )
    def test_bad_sizes_fail_at_construction(self, kwargs):
        with pytest.raises(DatasetError):
            make_mhealth(seed=5, **kwargs)


class TestRecipe:
    def test_default_spec_records_its_recipe(self):
        dataset = make_mhealth(seed=5, **SMALL)
        assert dataset.recipe == dict(SMALL, seed=5, spec=mhealth_spec().describe())
        assert dataset_digests_key(dataset) == dataset_digests_key(
            make_mhealth(seed=5, **SMALL)
        )
        assert dataset_digests_key(dataset) != dataset_digests_key(
            make_mhealth(seed=6, **SMALL)
        )

    def test_caller_supplied_spec_has_no_recipe(self):
        dataset = make_mhealth(seed=5, spec=mhealth_spec(), **SMALL)
        assert dataset.recipe is None
        assert dataset_digests_key(dataset) is None


def _repro_imports(path):
    """Every ``repro.*`` module a source file imports."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name == "repro" or name.startswith("repro."):
                yield name


def test_every_module_synthesis_imports_is_digested():
    root = os.path.dirname(repro.__file__)
    digested = {f"repro.{package}" for package in SYNTHESIS_PACKAGES}
    scanned = 0
    for package in SYNTHESIS_PACKAGES:
        directory = os.path.join(root, package)
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".py"):
                continue
            scanned += 1
            for module in _repro_imports(os.path.join(directory, name)):
                top = ".".join(module.split(".")[:2])
                assert module == "repro.errors" or top in digested, (
                    f"{package}/{name} imports {module}, which the split "
                    "digests key does not cover"
                )
    assert scanned > 10

