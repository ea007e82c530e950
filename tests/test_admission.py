"""Every exact entry point admits a model by the same rule.

``MarkovTreeModel.check_table_cap`` decides; the library entry points
raise :class:`EnumerationLimitError` and their callers turn that into
``None``, a skip line, exit 2 or a sampled mean.  The star below is over
the cap, and its pair (2, 3) needs no sweep at all (node 2 is a leaf),
so only the admission rule can refuse it.
"""

import numpy as np
import pytest

from treemix.cli import main
from treemix.concentration import (
    build_mixing_matrices,
    lipschitz_test_corpus,
    monte_carlo_deviation,
)
from treemix.mixing import eta_bar_exact, eta_report, exact_row
from treemix.model import EnumerationLimitError
from treemix.modelfile import random_model, save_model

REFUSAL = "joint table needs 32 cells, cap is 4 (raise TREEMIX_MAX_ENUM to override)"


@pytest.fixture
def star(monkeypatch, tmp_path):
    m = random_model(3, n=5, alphabet_size=2, depth=1)
    path = str(tmp_path / "star.json")
    save_model(m, path)
    monkeypatch.setenv("TREEMIX_MAX_ENUM", "4")  # 2**5 = 32 cells
    return m, path


def _refused(call):
    with pytest.raises(EnumerationLimitError, match="cap is 4"):
        call()


def _exact_row(m, path, capsys):
    _refused(lambda: exact_row(m, 2))


def _eta_bar_exact(m, path, capsys):
    _refused(lambda: eta_bar_exact(m, 2, 3))


def _build_exact(m, path, capsys):
    _refused(lambda: build_mixing_matrices(m, "exact"))


def _eta_report(m, path, capsys):
    report = eta_report(m, 2, 3)
    assert report.exact is None
    assert report.level_bound == 0.0


def _cli_pair(m, path, capsys):
    assert main(["eta", path, "--pair", "2", "3"]) == 0
    assert "  exact:      not computed (enumeration cap)\n" in capsys.readouterr().out


def _cli_norms(m, path, capsys):
    assert main(["norms", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "exact          (skipped: table exceeds enumeration cap)"
    assert [line.split()[0] for line in lines[2:]] == ["level-bound", "uniform-bound"]


def _cli_source_exact(m, path, capsys):
    for command in ("eta", "norms", "bound"):
        assert main([command, path, "--source", "exact"]) == 2
        assert capsys.readouterr().err == f"treemix: error: {REFUSAL}\n"


def _mc_mean(m, path, capsys):
    _, f = lipschitz_test_corpus(m.n, 2, np.random.default_rng(0))[0]
    est = monte_carlo_deviation(m, f, 0.2, 200, seed=1)
    assert est.mean_source == "sampled"


@pytest.mark.parametrize(
    "entry_point",
    [
        _exact_row,
        _eta_bar_exact,
        _build_exact,
        _eta_report,
        _cli_pair,
        _cli_norms,
        _cli_source_exact,
        _mc_mean,
    ],
    ids=lambda fn: fn.__name__.lstrip("_"),
)
def test_over_cap_star_is_refused_everywhere(star, capsys, entry_point):
    entry_point(*star, capsys)


def test_single_node_exact_source_is_refused(monkeypatch):
    # No row to fill, but the exact source still admits the model first.
    m = random_model(0, n=1, alphabet_size=3)
    monkeypatch.setenv("TREEMIX_MAX_ENUM", "2")
    with pytest.raises(EnumerationLimitError, match="cap is 2"):
        build_mixing_matrices(m, "exact")


def test_cached_table_is_refused_after_the_cap_drops(monkeypatch):
    # The table admitted and built under the default cap is not handed
    # out once the cap is lowered below its size.
    m = random_model(3, n=5, alphabet_size=2, depth=1)
    assert m.joint_table().shape == (2,) * 5
    monkeypatch.setenv("TREEMIX_MAX_ENUM", "4")
    with pytest.raises(EnumerationLimitError, match="cap is 4"):
        m.joint_table()
