import argparse
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemix import cli, concentration, model, verification
from treemix.cli import main
from treemix.mixing import eta_bar_exact
from treemix.model import _SAMPLE_BLOCK, MarkovTreeModel, sample_paths
from treemix.modelfile import parse_model_file, random_model, save_model

from conftest import oracle_eta_text, oracle_sample_text


@pytest.fixture
def model_path(tmp_path):
    path = str(tmp_path / "model.json")
    assert main(["gen", "--nodes", "6", "--seed", "3", "-o", path]) == 0
    return path


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, model_path):
        assert main(["inspect", "--sideways", model_path]) == 1

    def test_bad_count_value(self, model_path):
        assert main(["sample", model_path, "--count", "0"]) == 1
        assert main(["sample", model_path, "--count", "many"]) == 1
        assert main(["sample", model_path, "--seed", "-4"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_json_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["inspect", str(path)]) == 2

    def test_huge_node_count_is_refused_briefly(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"format_version": 1, "alphabet_size": 2, "nodes": 1000000, '
            '"root_dist": [0.5, 0.5], "edges": []}',
            encoding="utf-8",
        )
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert "disconnected: 1000000 parentless nodes" in err
        assert len(err.encode()) < 300

    def test_gen_capacity_error(self, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        code = main(
            ["gen", "--nodes", "10", "--width", "2", "--depth", "2", "-o", out]
        )
        assert code == 2
        assert "capacity" in capsys.readouterr().err

    def test_help_and_version_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "treemix" in capsys.readouterr().out
        assert main(["--version"]) == 0

    def test_parser_is_built_once(self, model_path, capsys):
        # A usage error leaves nothing behind in the shared parser: the
        # next command prints what it prints from a freshly built one.
        cli._build_parser.cache_clear()
        assert main(["eta", model_path, "--source", "uniform"]) == 0
        fresh = capsys.readouterr().out
        cli._build_parser.cache_clear()
        assert main(["eta", model_path, "--source", "nope"]) == 1
        assert main(["eta", model_path, "--source", "uniform"]) == 0
        assert capsys.readouterr().out == fresh
        assert cli._build_parser.cache_info().misses == 1

    def test_verification_failure_is_exit_three(self, model_path, monkeypatch, capsys):
        def broken(run):
            return 1.0, run.trials

        monkeypatch.setattr(
            verification, "_SUITES", [("always-broken", broken, 0.0)]
        )
        assert main(["verify", model_path]) == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "FAILED" in captured.err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options(command: str) -> dict[str, argparse.Action]:
    return {
        flag: action
        for action in _subcommands()[command]._actions
        for flag in action.option_strings
    }


class TestSkeleton:
    CSV_COMMANDS = ["coeffs", "eta", "norms", "bound", "sample", "verify"]

    def test_commands(self):
        assert sorted(_subcommands()) == sorted(["inspect", "gen", *self.CSV_COMMANDS])

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: treemix {command}")

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_csv_offered_by_csv_commands(self, command):
        assert ("--csv" in _options(command)) == (command in self.CSV_COMMANDS)

    @pytest.mark.parametrize("command", ["eta", "bound", "norms"])
    def test_source_choices_follow_the_ladder(self, command):
        short = [source.removesuffix("-bound") for source in concentration.SOURCES]
        assert short == ["exact", "level", "uniform"]
        extra = ["all"] if command == "norms" else []
        assert _options(command)["--source"].choices == short + extra

    @pytest.mark.parametrize("command", ["eta", "bound", "norms"])
    def test_unknown_source_is_usage_error(self, command, model_path, capsys):
        assert main([command, model_path, "--source", "level-bound"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"treemix: usage error: treemix {command}: argument --source")


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["inspect", "norms", "bound"])
    @pytest.mark.parametrize("entry", ["NaN", "Infinity", '"NaN"'])
    def test_exits_two(self, tmp_path, capsys, command, entry):
        path = tmp_path / "model.json"
        path.write_text(
            '{"format_version": 1, "alphabet_size": 2, "nodes": 2, '
            '"root_dist": [0.5, 0.5], "edges": [{"parent": 1, "child": 2, '
            f'"kernel": [[{entry}, {entry}], [0.5, 0.5]]}}]}}',
            encoding="utf-8",
        )
        assert main([command, str(path)]) == 2
        assert "model.json" in capsys.readouterr().err


class TestInspect:
    def test_tree_summary(self, model_path, capsys):
        assert main(["inspect", model_path]) == 0
        out = capsys.readouterr().out
        assert "nodes:          6" in out
        assert "width" in out
        assert "levels:" in out

    def test_verbose_lists_edges(self, model_path, capsys):
        assert main(["inspect", "-v", model_path]) == 0
        out = capsys.readouterr().out
        assert "root distribution:" in out
        assert "theta=" in out
        assert "relabeled:" in out


class TestEta:
    def test_matrix_output(self, model_path, capsys):
        assert main(["eta", model_path, "--source", "level"]) == 0
        assert "eta_bar matrix" in capsys.readouterr().out

    def test_pair_report(self, model_path, capsys):
        assert main(["eta", model_path, "--pair", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "exact:" in out
        assert "level:" in out
        assert "uniform:" in out

    def test_pair_lines_follow_the_rung_table(self, model_path, capsys):
        assert main(["eta", model_path, "--pair", "1", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split(":")[0].strip() for line in lines[1:]]
        short = [source.removesuffix("-bound") for source in concentration.SOURCES]
        assert names[: len(short)] == short
        assert names[len(short) :] in ([], ["geometric"])

    def test_csv_output(self, model_path, tmp_path, capsys):
        csv = str(tmp_path / "eta.csv")
        assert main(["eta", model_path, "--source", "exact", "--csv", csv]) == 0
        lines = Path(csv).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "i,j,eta_bar,provenance"
        assert len(lines) == 1 + 15  # 6 choose 2 pairs


class TestEntryPoint:
    def test_python_m_treemix_matches_main(self, tmp_path, capsys, monkeypatch):
        # The package's __main__ in a child process: exit code, stdout and
        # stderr equal those of cli.main in-process.
        src = str(Path(cli.__file__).resolve().parents[1])
        paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        monkeypatch.delenv("TREEMIX_MAX_ENUM", raising=False)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        path = str(tmp_path / "model.json")
        runs = [
            (["gen", "--nodes", "7", "--seed", "3", "-o", path], {}, 0),
            (["eta", path, "--pair", "1", "5"], {}, 0),
            (["eta", path, "--source", "exact"], {"TREEMIX_MAX_ENUM": "4"}, 2),
        ]
        for argv, extra, code in runs:
            child = subprocess.run(
                [sys.executable, "-m", "treemix", *argv],
                env={**env, **extra}, capture_output=True, text=True, timeout=120,
            )
            for key, value in extra.items():
                monkeypatch.setenv(key, value)
            assert main(argv) == code
            out = capsys.readouterr()
            assert (child.returncode, child.stdout, child.stderr) == (code, out.out, out.err)


@pytest.mark.parametrize("argv", [["coeffs"], ["inspect", "-v"]])
def test_edge_commands_make_no_kernel_view(model_path, monkeypatch, capsys, argv):
    models = []

    def parse(path):
        models.append(parse_model_file(path))
        return models[-1]

    monkeypatch.setattr(cli, "parse_model_file", parse)
    assert main([argv[0], model_path, *argv[1:]]) == 0
    assert [m.kernels._views for m, _ in models] == [{}]


class TestCoeffs:
    def test_lists_every_edge(self, model_path, capsys):
        assert main(["coeffs", model_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["parent", "child", "theta"]
        assert len(lines) == 6  # header + one row per edge

    def test_csv_output(self, model_path, tmp_path):
        csv = str(tmp_path / "coeffs.csv")
        assert main(["coeffs", model_path, "--csv", csv]) == 0
        lines = Path(csv).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "parent,child,theta"
        assert len(lines) == 6


class TestNorms:
    def test_all_sources_ordered(self, model_path, capsys):
        assert main(["norms", model_path]) == 0
        out = capsys.readouterr().out.splitlines()
        values = {}
        for line in out[1:]:
            parts = line.split()
            if len(parts) == 3:
                values[parts[0]] = float(parts[1])
        assert values["exact"] <= values["level-bound"] + 1e-12
        assert values["level-bound"] <= values["uniform-bound"] + 1e-12

    def test_exact_skipped_over_cap(self, model_path, monkeypatch, capsys):
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "8")
        assert main(["norms", model_path]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_explicit_exact_over_cap_errors(self, model_path, monkeypatch, capsys):
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "8")
        assert main(["norms", model_path, "--source", "exact"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_internal_error_is_not_data_error(self, model_path, monkeypatch):
        # A power iteration that fails to converge is a bug, not bad input:
        # it propagates instead of being reported as exit 2.
        monkeypatch.setattr(concentration, "POWER_ITERATION_CAP", 1)
        with pytest.raises(RuntimeError, match="converge"):
            main(["norms", model_path])


class TestBound:
    def test_default_grid(self, model_path, capsys):
        assert main(["bound", model_path]) == 0
        out = capsys.readouterr().out
        for t in ("0.05", "0.1", "0.2", "0.3", "0.5"):
            assert t in out

    def test_nan_threshold_is_data_error(self, model_path, capsys):
        assert main(["bound", model_path, "--t", "0.1", "nan"]) == 2
        assert "t must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "-0.1"])
    def test_bad_threshold_prints_nothing(self, model_path, tmp_path, capsys, bad):
        # Every threshold is checked before the first line is printed.
        csv = tmp_path / "bound.csv"
        argv = ["bound", model_path, "--t", "0.1", bad, "--csv", str(csv)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"treemix: error: t must be nonnegative, got {float(bad)}\n"
        assert not csv.exists()

    def test_euclidean_notes_convexity(self, model_path, capsys):
        assert main(["bound", model_path, "--metric", "euclidean"]) == 0
        assert "convex" in capsys.readouterr().out


class TestSampleDeterminism:
    def test_csv_bytes_identical(self, model_path, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sample", model_path, "--count", "50", "--seed", "7", "--csv", a]) == 0
        assert main(["sample", model_path, "--count", "50", "--seed", "7", "--csv", b]) == 0
        ba, bb = Path(a).read_bytes(), Path(b).read_bytes()
        assert ba == bb
        assert ba.decode("utf-8").splitlines()[0] == "path,x1,x2,x3,x4,x5,x6"

    def test_stdout_when_no_csv(self, model_path, capsys):
        assert main(["sample", model_path, "--count", "3", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "count",
        [1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 3],
    )
    def test_blocks_match_one_call(self, model_path, tmp_path, count):
        # The table is drawn and written a block at a time; the bytes are
        # those of one sample_paths call over every path.
        m, _ = parse_model_file(model_path)
        want = oracle_sample_text(sample_paths(m, 11, count), m.alphabet_size)
        csv = tmp_path / "out.csv"
        argv = ["sample", model_path, "--count", str(count), "--seed", "11"]
        printed, _ = _run(argv, csv)
        with_csv, written = _run([*argv, "--csv", str(csv)], csv)
        assert printed == want
        assert written == want.encode()
        assert with_csv == f"wrote {csv} ({count} rows)\n"

    def test_memory_does_not_grow_with_count(self, tmp_path):
        # A 64-node chain: the whole table at 60,000 paths would take
        # about 66 MiB to hold; one block at a time takes a few MiB.
        path = str(tmp_path / "chain.json")
        save_model(random_model(seed=5, n=64, width=1), path)
        csv = str(tmp_path / "out.csv")
        peaks = {}
        for count in (20_000, 60_000):
            argv = ["sample", path, "--count", str(count), "--csv", csv]
            tracemalloc.start()
            try:
                with mock.patch("sys.stdout", new_callable=io.StringIO):
                    assert main(argv) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[60_000] < 10 * 2**20
        assert peaks[60_000] <= 1.02 * peaks[20_000]


class TestVerifyCommand:
    def test_pipeline_and_csv_bytes(self, model_path, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["verify", model_path, "--trials", "60", "--csv", a]) == 0
        assert main(["verify", model_path, "--trials", "60", "--csv", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL " not in out


class TestNearlyStochasticFile:
    def test_deep_chain_keeps_the_ladder(self, tmp_path, capsys):
        # Every kernel has the rows [1 - 0.99e-13, 0] and [0, 1]: loaded
        # normalized, so over 22 levels no rung falls below the exact value.
        rows = [[1 - 0.99e-13, 0.0], [0.0, 1.0]]
        doc = {
            "format_version": 1, "alphabet_size": 2, "nodes": 23, "root_dist": [0.5, 0.5],
            "edges": [{"parent": k, "child": k + 1, "kernel": rows} for k in range(1, 23)],
        }
        path = tmp_path / "chain23.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path), "--trials", "20"]) == 0
        capsys.readouterr()
        assert main(["eta", str(path), "--pair", "1", "23"]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["exact:", "1"] in lines and ["level:", "1"] in lines


class TestGen:
    def test_stdout_document(self, capsys):
        assert main(["gen", "--nodes", "4", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"] == 4
        assert doc["format_version"] == 1

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["gen", "--nodes", "5", "--seed", "9", "-o", a]) == 0
        assert main(["gen", "--nodes", "5", "--seed", "9", "-o", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_stdout_file_and_save_model_agree(self, tmp_path, capsys):
        argv = ["gen", "--nodes", "9", "--alphabet-size", "3", "--width", "3", "--seed", "4"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out, saved = tmp_path / "out.json", tmp_path / "saved.json"
        assert main([*argv, "-o", str(out)]) == 0
        save_model(random_model(4, 9, alphabet_size=3, width=3), str(saved))
        assert out.read_bytes() == saved.read_bytes() == stdout.encode()

    def test_env_cap_applies(self, model_path, monkeypatch):
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "not-a-number")
        assert main(["eta", model_path, "--source", "exact"]) == 2


class TestExactWithoutJointTable:
    def test_exact_paths_never_build_the_table(self, model_path, monkeypatch, capsys):
        # The exact engine sweeps frontier laws; the joint table is only
        # the oracle, so every exact command runs with it unavailable.
        def no_table(self):
            raise AssertionError("joint table built")

        monkeypatch.setattr(MarkovTreeModel, "joint_table", no_table)
        m, _ = parse_model_file(model_path)
        delta, _ = concentration.build_mixing_matrices(m, "exact")
        assert delta.entries[0, 1:].max() > 0.0
        assert eta_bar_exact(m, 1, m.n) == delta.entries[0, m.n - 1]
        for argv in (
            ["eta", model_path, "--source", "exact"],
            ["eta", model_path, "--pair", "1", "4"],
            ["norms", model_path],
            ["bound", model_path, "--source", "exact"],
        ):
            assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert "skipped" not in out and "not computed" not in out


# ------------------------------------------------------------ table writers
#
# The `eta` matrix and `sample` writers format whole arrays; the oracles in
# conftest format one cell at a time, as the writers did before.  The
# matrices and batches are handed to the commands in place of the
# library's, so any float and any state can be tried.


@pytest.fixture(scope="session")
def model_of_shape(tmp_path_factory):
    """(n, s) -> path of a model file with n nodes over s states."""
    root = tmp_path_factory.mktemp("shapes")
    paths = {}

    def get(n, s):
        if (n, s) not in paths:
            paths[n, s] = str(root / f"n{n}-s{s}.json")
            save_model(random_model(seed=n * 100 + s, n=n, alphabet_size=s), paths[n, s])
        return paths[n, s]

    return get


def _run(argv, csv):
    """stdout of one run and the bytes it wrote to ``csv``, if any."""
    csv.unlink(missing_ok=True)
    with mock.patch("sys.stdout", new_callable=io.StringIO) as out:
        assert main(argv) == 0
    return out.getvalue(), csv.read_bytes() if csv.exists() else None


# Values a matrix cell can hold: both zeros, 1, the smallest subnormal,
# values that need 17 digits, and values wider than ten characters on the
# screen (so cell widths differ); any float besides.
_SPECIAL = [0.0, -0.0, 1.0, 5e-324, 0.1 + 0.2, 1 / 3, 2 / 3, 0.7, -1.5e-308, 1e100, 0.5]


@st.composite
def eta_matrices(draw):
    n = draw(st.integers(1, 9))
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64)),
            min_size=1,
            max_size=6,
        )
    )
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
    return np.array(cells, dtype=np.float64).reshape(n, n)


@given(entries=eta_matrices(), source=st.sampled_from(tuple(concentration.SOURCES)))
@example(entries=np.array([[1.0]]), source="exact")
@example(entries=np.array([[1.0, -0.0], [0.0, 1.0]]), source="level-bound")
@settings(max_examples=150, deadline=None)
def test_eta_writer_matches_per_cell_oracle(model_of_shape, tmp_path_factory, entries, source):
    path = model_of_shape(len(entries), 2)
    csv = tmp_path_factory.getbasetemp() / "eta.csv"
    short = source.removesuffix("-bound")
    delta = SimpleNamespace(entries=entries)
    with mock.patch.object(cli, "build_mixing_matrices", return_value=(delta, None)):
        screen, _ = _run(["eta", path, "--source", short], csv)
        with_csv, written = _run(["eta", path, "--source", short, "--csv", str(csv)], csv)
    want_screen, want_csv = oracle_eta_text(entries, source)
    assert screen == want_screen
    rows = len(entries) * (len(entries) - 1) // 2
    assert with_csv == f"{want_screen}wrote {csv} ({rows} rows)\n"
    assert written == want_csv.encode()


@st.composite
def sample_batches(draw):
    s = draw(st.integers(2, 12))
    n = draw(st.integers(1, 7))
    count = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, s - 1), min_size=count * n, max_size=count * n))
    return s, np.array(cells, dtype=np.int64).reshape(count, n)


@given(drawn=sample_batches())
@settings(max_examples=150, deadline=None)
def test_sample_writer_matches_per_cell_oracle(model_of_shape, tmp_path_factory, drawn):
    s, batch = drawn
    count, n = batch.shape
    path = model_of_shape(n, s)
    csv = tmp_path_factory.getbasetemp() / "sample.csv"
    argv = ["sample", path, "--count", str(count)]
    with mock.patch.object(model, "sample_paths", return_value=batch):
        printed, _ = _run(argv, csv)
        with_csv, written = _run([*argv, "--csv", str(csv)], csv)
    want = oracle_sample_text(batch, s)
    assert printed == want
    assert written == printed.encode()  # stdout is the CSV body
    assert with_csv == f"wrote {csv} ({count} rows)\n"


@pytest.mark.parametrize("n, s", [(1, 3), (6, 2), (9, 11), (14, 12)])
def test_writers_match_oracle_on_library_output(model_of_shape, tmp_path, n, s):
    path = model_of_shape(n, s)
    m, _ = parse_model_file(path)
    csv = tmp_path / "out.csv"
    for source in ("level-bound", "uniform-bound"):
        delta, _ = concentration.build_mixing_matrices(m, source)
        want_screen, want_csv = oracle_eta_text(delta.entries, source)
        short = source.removesuffix("-bound")
        screen, written = _run(["eta", path, "--source", short, "--csv", str(csv)], csv)
        assert screen.startswith(want_screen)
        assert written == want_csv.encode()
    printed, _ = _run(["sample", path, "--count", "40", "--seed", "5"], csv)
    assert printed == oracle_sample_text(sample_paths(m, 5, 40), s)
