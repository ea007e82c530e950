import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemix.cli import main as cli_main
from treemix.model import _NORM_BAND, Kernel, MarkovTreeModel, max_contraction
from treemix.modelfile import (
    ModelFileError,
    _random_tree,
    parse_model_file,
    random_model,
    save_model,
    serialize_model,
)
from treemix.tvalgebra import STOCHASTIC_ATOL, column_tv_norm

from conftest import (
    ROWS_05,
    ROWS_07,
    oracle_parse_model,
    oracle_random_model,
    oracle_random_tree,
)

_ULP = 2.0**-52


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
        # a sum within the normalization band passes through untouched
        doc = chain3_doc()
        val = 0.5 + 2 * _ULP
        doc["root_dist"] = [0.5, val]
        m, _ = parse_model_file(write_doc(tmp_path, doc))
        assert m.root_dist[1] == val

    def test_drift_past_the_band_normalized(self, tmp_path):
        doc = chain3_doc()
        val = 0.5 + 4e-14
        doc["root_dist"] = [0.5, val]
        m, _ = parse_model_file(write_doc(tmp_path, doc))
        total = math.fsum([0.5, val])
        assert m.root_dist.tolist() == [0.5 / total, val / total]
        assert abs(math.fsum(m.root_dist.tolist()) - 1.0) <= _ULP

    def test_large_drift_rejected(self, tmp_path):
        doc = chain3_doc()
        doc["root_dist"] = [0.5, 0.51]
        with pytest.raises(ModelFileError, match="sums to"):
            parse_model_file(write_doc(tmp_path, doc))


class TestRoundTrip:
    def test_drifted_model_round_trip_is_bit_exact(self, tmp_path):
        # Columns off by up to 1e-9 are normalized once, by the model; the
        # saved file then loads back into the same bits.
        m = random_model(2, n=9, alphabet_size=3, width=3)
        rng = np.random.default_rng(2)
        stack = m.kernel_stack * (1 + rng.uniform(-1e-9, 1e-9, (8, 1, 3)))
        drifted = MarkovTreeModel(m.tree, 3, m.root_dist * (1 + 5e-10), stack)
        assert not np.array_equal(drifted.kernel_stack, stack)
        path = str(tmp_path / "drifted.json")
        save_model(drifted, path)
        back, _ = parse_model_file(path)
        assert back.kernel_stack.tobytes() == drifted.kernel_stack.tobytes()
        assert back.root_dist.tobytes() == drifted.root_dist.tobytes()
        again = str(tmp_path / "again.json")
        save_model(back, again)
        assert Path(again).read_bytes() == Path(path).read_bytes()

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
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


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

    @pytest.mark.parametrize("n, s, width", [(1, 2, None), (2, 2, None), (40, 3, 12)])
    def test_stack_equals_kernel_mapping_construction(self, n, s, width):
        # The stack drawn in child order is the model the per-edge Kernel
        # mapping gave: same tree, bits and memory layout (the strides of an
        # empty stack address nothing).
        m = random_model(11, n, alphabet_size=s, width=width)
        old = oracle_random_model(11, n, alphabet_size=s, width=width)
        assert m.tree.edges() == old.tree.edges()
        for a, b in [(m.kernel_stack, old.kernel_stack), (m.root_dist, old.root_dist)]:
            assert a.tobytes() == b.tobytes()
            layout = [(x.shape, x.flags.c_contiguous, x.flags.f_contiguous) for x in (a, b)]
            assert layout[0] == layout[1]
            assert a.size == 0 or a.strides == b.strides
        assert m.kernel_stack.shape == (n - 1, s, s)


@st.composite
def tree_shapes(draw):
    """``(n, width, depth)``: a chain, a star, or caps that a tree on n
    nodes can meet."""
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["chain", "star", "capped"]))
    if kind == "chain":
        return n, 1, max(n - 1, 1)
    if kind == "star":
        return n, max(n - 1, 1), 1
    width = draw(st.integers(1, n))
    depth = draw(st.integers(-(-(n - 1) // width) if n > 1 else 1, n))
    return n, width, depth


@given(shape=tree_shapes(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_random_tree_matches_per_node_oracle(shape, seed):
    n, width, depth = shape
    assert _random_tree(np.random.default_rng(seed), n, width, depth) == oracle_random_tree(
        np.random.default_rng(seed), n, width, depth
    )


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


# ------------------------------------------------------- error contract


def _cli_inspect(path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(["inspect", path])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "kernel, fault",
    [
        ([[0.75, 0.25], [0.2, "x"]], "row 1 contains non-numeric entries"),
        ([[0.75, 0.25], [1.2, -0.2]], "row 1 has entries outside [0, 1]"),
        ([[0.75, 0.25], [0.25, 0.25, 0.5]], "row 1 must be a list of 2 probabilities"),
        ([[0.75, 0.25], [0.22, 0.75]], "row 1 sums to 0.97"),
        ([[0.75, 0.25]], "row 1 is missing: it must have 2 rows"),
        ([[0.75, 0.25], [0.25, 0.75], [0.5, 0.5]], "row 2 is extra: it must have 2 rows"),
    ],
    ids=["non-numeric", "outside", "row-length", "row-sum", "missing-row", "extra-row"],
)
def test_kernel_fault_names_edge_and_row(tmp_path, kernel, fault):
    doc = chain3_doc()
    doc["edges"][1]["kernel"] = kernel
    path = write_doc(tmp_path, doc)
    message = f"{path}: kernel for edge (2, 3), {fault}"
    with pytest.raises(ModelFileError, match=re.escape(message)):
        parse_model_file(path)
    code, err = _cli_inspect(path)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "edits",
    [
        # a bad row sum in the first edge comes before a non-object edge
        [(("edges", 0, "kernel", 1), [0.2, 0.7]), (("edges", 1), "edge")],
        # non-numeric row 0 before an out-of-range row 1 of the same edge
        [(("edges", 0, "kernel", 0), ["a", 0.1]), (("edges", 0, "kernel", 1), [2.0, -1.0])],
        # an out-of-range row before a short row, across edges
        [(("edges", 0, "kernel", 1), [-0.1, 1.1]), (("edges", 1, "kernel", 0), [1.0])],
        # the root law comes before every kernel
        [(("root_dist",), [0.7, 0.7]), (("edges", 0, "kernel", 0), ["x", "y"])],
        # range is checked before the sum within one row
        [(("edges", 1, "kernel", 0), [1.5, 0.6])],
        # a bad row before a missing field of a later edge
        [(("edges", 0, "kernel", 1), "row"), (("edges", 1, "parent"), None)],
    ],
)
def test_first_fault_in_file_order_is_reported(tmp_path, edits):
    doc = copy.deepcopy(chain3_doc())  # its rows are the shared ROWS_* lists
    for where, value in edits:
        target = doc
        for key in where[:-1]:
            target = target[key]
        if value is None:
            del target[where[-1]]
        else:
            target[where[-1]] = value
    path = write_doc(tmp_path, doc)
    with pytest.raises(ModelFileError) as new:
        parse_model_file(path)
    with pytest.raises(ModelFileError) as old:
        oracle_parse_model(path)
    assert str(new.value) == str(old.value)


def test_integer_beyond_float_range_is_rejected(tmp_path):
    path = tmp_path / "huge.json"
    text = json.dumps(chain3_doc()).replace("0.9", "1" + "0" * 400, 1)
    path.write_text(text, encoding="utf-8")
    message = f"{path}: kernel for edge (1, 2), row 0 has entries outside [0, 1]"
    with pytest.raises(ModelFileError, match=re.escape(message)):
        parse_model_file(str(path))
    assert _cli_inspect(str(path))[0] == 2


# ------------------------------------------- parser against its oracle

# Row sums placed just inside or just outside the band that loading
# leaves alone (4 ulp), 1e-13 and the tolerance (1e-9), by up to 8 ulp of 1.
_BANDS = {"1e-13": 1e-13, "max": 1e-9, "band": _NORM_BAND}


@st.composite
def _row(draw, rng, s):
    kind = draw(st.sampled_from(["plain", "1e-13", "band", "max", "one-hot"]))
    if kind == "one-hot":
        hot = draw(st.integers(0, s - 1))
        ones = draw(st.sampled_from([(True, False), (1, 0), (1.0, 0.0)]))
        return [ones[0] if k == hot else ones[1] for k in range(s)]
    raw = rng.random(s) ** 3 + 1e-3
    row = (raw / raw.sum()).tolist()
    if kind != "plain":
        edge = _BANDS[kind] + draw(st.integers(-8, 8)) * _ULP
        sign = draw(st.sampled_from([-1.0, 1.0]))
        if kind == "max" and edge > _BANDS["max"]:
            edge = _BANDS["max"] - (edge - _BANDS["max"])  # stay loadable
        top = int(np.argmax(row))
        row[top] += 1.0 + sign * edge - math.fsum(row)
    if draw(st.booleans()):
        row = [repr(x) if draw(st.booleans()) else x for x in row]
    return row


# Faults injected into one entry or row: both parsers must reject them
# with the same message.
_FAULTS = {
    "nan-string": lambda row: ["nan"] + row[1:],
    "NaN-string": lambda row: row[:-1] + ["NaN"],
    "non-numeric": lambda row: [row[0], [0.5]] + row[2:],
    "outside": lambda row: [1.5] + row[1:],
    "sum-outside-tolerance": lambda row: [float(row[0]) + 3e-9] + row[1:],
    "short-row": lambda row: row[:-1],
    "not-a-list": lambda row: "row",
}


@st.composite
def model_documents(draw):
    s = draw(st.integers(min_value=2, max_value=9))
    n = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = [0] + (rng.permutation(n) + 1).tolist()
    edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    order = rng.permutation(len(edges)).tolist()
    doc = {
        "format_version": 1,
        "alphabet_size": s,
        "nodes": n,
        "root_dist": draw(_row(rng, s)),
        "edges": [
            {
                "parent": label[edges[pos][0]],
                "child": label[edges[pos][1]],
                "kernel": [draw(_row(rng, s)) for _ in range(s)],
            }
            for pos in order
        ],
    }
    rows = [(doc, "root_dist")] + [
        (edge["kernel"], r) for edge in doc["edges"] for r in range(s)
    ]
    for fault in draw(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=2)):
        parent, key = rows[draw(st.integers(0, len(rows) - 1))]
        if isinstance(parent[key], list):
            parent[key] = _FAULTS[fault](parent[key])
    return doc


def _load(parse, path):
    try:
        return parse(path)
    except ModelFileError as exc:
        return str(exc)


@given(doc=model_documents())
@settings(max_examples=200, deadline=None)
def test_parser_matches_per_row_oracle(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        new, old = _load(parse_model_file, path), _load(oracle_parse_model, path)
    assert type(new) is type(old)
    if isinstance(old, str):
        assert new == old
        return
    (m, relabel), (m_old, relabel_old) = new, old
    assert relabel == relabel_old
    assert m.root_dist.tobytes() == m_old.root_dist.tobytes()
    edges = m.tree.edges()
    assert m.kernel_stack.shape == (len(edges), m.alphabet_size, m.alphabet_size)
    old_stack = np.array([m_old.kernels[edge].matrix for edge in edges])
    assert m.kernel_stack.tobytes() == old_stack.tobytes()
    thetas = m.edge_thetas
    for u, v in edges:
        assert m.kernels[(u, v)].matrix.base is not None  # a view into the stack
        assert thetas[v] == column_tv_norm(m_old.kernels[(u, v)].matrix)


def test_parsing_makes_no_kernel_view(tmp_path, monkeypatch):
    # The op paths and the writer read ``kernel_stack``; views are made
    # only when asked for.
    path = str(tmp_path / "model.json")
    save_model(random_model(seed=4, n=12, alphabet_size=3), path)
    made = []
    view, init = Kernel._view.__func__, Kernel.__post_init__
    monkeypatch.setattr(
        Kernel, "_view",
        classmethod(lambda cls, edge, mat: made.append(edge) or view(cls, edge, mat)),
    )
    monkeypatch.setattr(Kernel, "__post_init__", lambda k: made.append(k.edge) or init(k))
    m, _ = parse_model_file(path)
    assert made == []
    doc = serialize_model(m)
    assert made == []
    assert [k.edge for k in m.kernels.values()] == made == list(m.tree.edges())
    assert [k.edge for k in m.kernels.values()] == made  # each view made once
    assert len(made) == m.n - 1
    with open(path, encoding="utf-8") as fh:
        assert doc == json.load(fh)
