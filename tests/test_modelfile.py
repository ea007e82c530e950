import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemix.cli import main as cli_main
from treemix.model import max_contraction
from treemix.modelfile import (
    ModelFileError,
    parse_model_file,
    random_model,
    save_model,
    serialize_model,
)
from treemix.tvalgebra import STOCHASTIC_ATOL

from conftest import ROWS_05, ROWS_07


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def chain3_doc():
    return {
        "format_version": 1,
        "alphabet_size": 2,
        "nodes": 3,
        "root_dist": [0.5, 0.5],
        "edges": [
            {"parent": 1, "child": 2, "kernel": ROWS_07},
            {"parent": 2, "child": 3, "kernel": ROWS_05},
        ],
    }


class TestParse:
    def test_valid_file(self, tmp_path):
        m, relabel = parse_model_file(write_doc(tmp_path, chain3_doc()))
        assert m.n == 3
        assert relabel == {1: 1, 2: 2, 3: 3}
        # parent-major file rows land as columns of the stored kernel
        np.testing.assert_array_equal(
            m.kernel((1, 2)).matrix, np.array(ROWS_07).T
        )
        assert max_contraction(m) == pytest.approx(0.7, abs=1e-15)

    def test_relabeling_echoed(self, tmp_path):
        doc = chain3_doc()
        # same chain written with scrambled labels 2 -> 3 -> 1
        doc["edges"] = [
            {"parent": 2, "child": 3, "kernel": ROWS_07},
            {"parent": 3, "child": 1, "kernel": ROWS_05},
        ]
        m, relabel = parse_model_file(write_doc(tmp_path, doc))
        assert relabel == {2: 1, 3: 2, 1: 3}
        np.testing.assert_array_equal(
            m.kernel((1, 2)).matrix, np.array(ROWS_07).T
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError, match="No such file"):
            parse_model_file(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFileError, match="invalid JSON at line 1"):
            parse_model_file(str(path))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ModelFileError, match="top level"):
            parse_model_file(str(path))

    def test_bad_version(self, tmp_path):
        doc = chain3_doc()
        doc["format_version"] = 2
        with pytest.raises(ModelFileError, match="format_version 2"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_missing_fields(self, tmp_path):
        for field in ("format_version", "alphabet_size", "nodes", "root_dist", "edges"):
            doc = chain3_doc()
            del doc[field]
            with pytest.raises(ModelFileError, match=field):
                parse_model_file(write_doc(tmp_path, doc))

    def test_non_numeric_kernel_entry(self, tmp_path):
        doc = chain3_doc()
        doc["edges"][0]["kernel"] = [[0.9, "x"], [0.2, 0.8]]
        with pytest.raises(ModelFileError, match="non-numeric"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_row_sum_error_names_edge_and_row(self, tmp_path):
        doc = chain3_doc()
        doc["edges"][1]["kernel"] = [[0.75, 0.25], [0.22, 0.75]]
        with pytest.raises(
            ModelFileError, match=r"edge \(2, 3\), row 1 sums to 0.97"
        ):
            parse_model_file(write_doc(tmp_path, doc))

    def test_root_dist_sum_checked(self, tmp_path):
        doc = chain3_doc()
        doc["root_dist"] = [0.6, 0.6]
        with pytest.raises(ModelFileError, match="root_dist"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_negative_probability(self, tmp_path):
        doc = chain3_doc()
        doc["root_dist"] = [1.2, -0.2]
        with pytest.raises(ModelFileError, match=r"outside \[0, 1\]"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_wrong_kernel_row_count(self, tmp_path):
        doc = chain3_doc()
        doc["edges"][0]["kernel"] = [[1.0, 0.0]]
        with pytest.raises(ModelFileError, match="2 rows"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_structure_errors_wrapped(self, tmp_path):
        doc = chain3_doc()
        doc["edges"][1] = {"parent": 1, "child": 2, "kernel": ROWS_05}
        with pytest.raises(ModelFileError, match="two parents"):
            parse_model_file(write_doc(tmp_path, doc))
        doc = chain3_doc()
        doc["edges"] = doc["edges"][:1]
        with pytest.raises(ModelFileError, match="disconnected"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_bool_not_accepted_as_int(self, tmp_path):
        doc = chain3_doc()
        doc["nodes"] = True
        with pytest.raises(ModelFileError, match="integer"):
            parse_model_file(write_doc(tmp_path, doc))


class TestRenormalization:
    def test_small_drift_renormalized(self, tmp_path):
        doc = chain3_doc()
        doc["root_dist"] = [0.5, 0.5 + 4e-10]
        m, _ = parse_model_file(write_doc(tmp_path, doc))
        assert float(np.sum(m.root_dist)) == pytest.approx(1.0, abs=1e-15)

    def test_tiny_drift_left_alone(self, tmp_path):
        # below the skip threshold the entries pass through untouched
        doc = chain3_doc()
        val = 0.5 + 4e-14
        doc["root_dist"] = [0.5, val]
        m, _ = parse_model_file(write_doc(tmp_path, doc))
        assert m.root_dist[1] == val

    def test_large_drift_rejected(self, tmp_path):
        doc = chain3_doc()
        doc["root_dist"] = [0.5, 0.51]
        with pytest.raises(ModelFileError, match="sums to"):
            parse_model_file(write_doc(tmp_path, doc))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        for seed in range(5):
            m = random_model(seed, n=7, alphabet_size=3)
            path = str(tmp_path / f"m{seed}.json")
            save_model(m, path)
            back, relabel = parse_model_file(path)
            assert relabel == {v: v for v in range(1, 8)}
            np.testing.assert_array_equal(back.root_dist, m.root_dist)
            for edge in m.tree.edges():
                np.testing.assert_array_equal(
                    back.kernel(edge).matrix, m.kernel(edge).matrix
                )

    def test_serialized_shape(self):
        m = random_model(1, n=4)
        doc = serialize_model(m)
        assert doc["format_version"] == 1
        assert doc["nodes"] == 4
        assert len(doc["edges"]) == 3
        assert all(isinstance(x, float) for x in doc["root_dist"])

    def test_save_is_stable(self, tmp_path):
        m = random_model(3, n=5)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_model(m, p1)
        save_model(m, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestRandomModel:
    def test_deterministic_in_seed(self):
        a = random_model(5, n=6, alphabet_size=2)
        b = random_model(5, n=6, alphabet_size=2)
        assert a.tree.edges() == b.tree.edges()
        np.testing.assert_array_equal(a.root_dist, b.root_dist)
        for edge in a.tree.edges():
            np.testing.assert_array_equal(
                a.kernel(edge).matrix, b.kernel(edge).matrix
            )
        c = random_model(6, n=6, alphabet_size=2)
        assert a.tree.edges() != c.tree.edges() or not np.array_equal(
            a.root_dist, c.root_dist
        )

    def test_theta_cap_respected(self):
        for seed in range(20):
            m = random_model(seed, n=6, alphabet_size=3, theta_max=0.6)
            assert max_contraction(m) <= 0.6 + 1e-12

    def test_width_and_depth_caps(self):
        for seed in range(20):
            m = random_model(seed, n=8, width=2, depth=5)
            assert m.tree.width <= 2
            assert m.tree.depth <= 5

    def test_full_support(self):
        for seed in range(10):
            m = random_model(seed, n=5, alphabet_size=3)
            assert m.root_dist.min() > 0.0
            for edge in m.tree.edges():
                assert m.kernel(edge).matrix.min() > 0.0

    def test_capacity_error(self):
        with pytest.raises(ValueError, match="capacity"):
            random_model(0, n=10, width=2, depth=2)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="node count"):
            random_model(0, n=0)
        with pytest.raises(ValueError, match="alphabet"):
            random_model(0, n=3, alphabet_size=1)
        with pytest.raises(ValueError, match="theta_max"):
            random_model(0, n=3, theta_max=1.0)

    def test_single_node(self):
        m = random_model(0, n=1)
        assert m.n == 1
        assert m.tree.edges() == ()


# ------------------------------------------------------------------ fuzzer


def tree_doc(kind, s):
    """A chain or a star on four nodes over ``s`` states, in fresh lists."""
    rows = np.full((s, s), 0.5 / (s - 1))
    np.fill_diagonal(rows, 0.5)
    pairs = [(1, 2), (2, 3), (3, 4)] if kind == "chain" else [(1, 2), (1, 3), (1, 4)]
    return {
        "format_version": 1,
        "alphabet_size": s,
        "nodes": 4,
        "root_dist": [1.0 / s] * s,
        "edges": [
            {"parent": u, "child": v, "kernel": rows.tolist()} for u, v in pairs
        ],
    }


# Replacement values: other types, out-of-range and non-finite probabilities,
# and small integers that make labels, counts and versions wrong.  Integers
# stay small so that no mutant asks for a huge alphabet or node count.
_JUNK = st.one_of(
    st.sampled_from(
        [None, True, "0.5", "x", -1e-13, -0.1, 1.5, 1e-300, 0.0, 1.0,
         math.nan, math.inf, -math.inf, [], {}, [0.5, 0.5], [[1.0, 0.0]]]
    ),
    st.integers(min_value=-2, max_value=12),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _paths(node, prefix=()):
    """Every position inside a JSON document, as a tuple of keys/indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    actions = ["drop", "replace"] + (["duplicate"] if isinstance(parent, list) else [])
    action = data.draw(st.sampled_from(actions))
    if action == "drop":
        del parent[key]  # a missing field, row, entry or edge
    elif action == "replace":
        # A copy: the list and dict samples are shared between examples.
        parent[key] = copy.deepcopy(data.draw(_JUNK))
    else:
        parent.append(json.loads(json.dumps(parent[key])))  # one row or edge too many


def _check_invariants(m, relabel, doc):
    assert (m.n, m.alphabet_size) == (doc["nodes"], doc["alphabet_size"])
    assert sorted(relabel) == sorted(relabel.values()) == list(range(1, m.n + 1))
    assert set(m.kernels) == set(m.tree.edges())
    for mat in [m.root_dist[:, None]] + [k.matrix for k in m.kernels.values()]:
        assert np.isfinite(mat).all() and mat.min() >= 0.0
        assert np.abs(mat.sum(axis=0) - 1.0).max() <= STOCHASTIC_ATOL


@given(
    kind=st.sampled_from(["chain", "star"]),
    s=st.integers(min_value=2, max_value=3),
    mutations=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_fuzzed_document_loads_or_is_rejected(kind, s, mutations, data):
    doc = tree_doc(kind, s)
    for _ in range(mutations):
        if doc:
            _mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            m, relabel = parse_model_file(path)
        except ModelFileError:
            loaded = False
        else:
            loaded = True
            _check_invariants(m, relabel, doc)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["inspect", path, "-v"])
        assert code == (0 if loaded else 2)
