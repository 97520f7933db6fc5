"""tests/reach.py finds what it says it finds, and the package's list is pinned.

The walk matches names as strings, so it overstates reach: a method shares
reach with every method of its name (EnhancerWeights.forward with
EnhancerNet.forward), and a reached class reaches all its dunders
(Frames.__iter__). The pinned list is a lower bound on what no product
path runs.
"""

import ast
import os

from tests import reach

INIT = '''
from pkg.core import Engine, run

__all__ = ["Engine", "run"]
'''

CLI = '''
def main(argv):
    from pkg.core import helper as _helper

    return _helper(argv)
'''

CORE = """
LIMIT = 3
UNUSED = 4


class Base:
    def shared(self):
        return LIMIT


class Engine(Base):
    def __init__(self):
        self.n = 0

    def step(self):
        return self.n + self.shared()

    def spare(self):
        return 0


def run(engine):
    return engine.step()


def helper(x):
    return x


def orphan():
    return only_from_orphan()


def only_from_orphan():
    return 1


def bench_only():
    return 2


if __name__ == "__main__":
    run(Engine())
"""

BENCH = """
from pkg import core

SPANS = [(core, "bench_only")]
"""


def plant(tmp_path):
    pkg = tmp_path / "pkg"
    bench = tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    for name, source in (("__init__", INIT), ("cli", CLI), ("core", CORE)):
        (pkg / f"{name}.py").write_text(source)
    (bench / "spans.py").write_text(BENCH)
    return str(pkg), str(bench)


def test_planted_package(tmp_path):
    pkg, bench = plant(tmp_path)
    # `helper` is reached through cli.main's aliased import, Base as
    # Engine's base and its `shared` because `step` names it; `spare` is
    # named by nothing, `only_from_orphan` only by a function nothing
    # reaches, and bench/ names `bench_only` as a string
    assert reach.unreached(pkg, bench) == [
        ("core.UNUSED", False),
        ("core.Engine.spare", False),
        ("core.orphan", False),
        ("core.only_from_orphan", False),
        ("core.bench_only", True),
    ]
    assert {"core.helper", "core.Base", "core.Base.shared", "core.LIMIT",
            "core.Engine.__init__", "core.Engine.step"} <= reach.reached_names(pkg)[1]


def test_imports_nothing_from_the_package():
    with open(os.path.join(os.path.dirname(__file__), "reach.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.partition(".")[0] == "targetvoice" for name in imported)


def test_eer_is_reached_through_a_function_local_import():
    # train_embedder imports it as `from targetvoice.metrics import eer as compute_eer`
    assert "metrics.eer" in reach.reached_names()[1]


def test_package_unreached_names_are_pinned():
    # only names the benchmark still calls stay unreached; a change that
    # deletes them from bench/ and src/ empties this list
    assert reach.unreached() == [
        ("frontend.band_energies", True),
        ("frontend.estimate_pitch", True),
        ("frontend.coherence_from_spectra", True),
        ("frontend.feature_matrix", True),
    ]
