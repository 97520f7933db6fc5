"""tests/settable_values.py counts what it says it counts."""

from tests.settable_values import PACKAGE, count, counts

SOURCE = '''
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ModelConfig:
    width: int = 4
    depth: int
    tag: str = field(default="x")
    LIMIT = 3

    def scaled(self, by=2, *, floor=None, ceil):
        return self


@dataclass
class Record:
    a: int = 1


class PlainConfig:
    b: int = 2


def run(x, y=1, *args, z=2, **kw):
    def inner(q=None):
        return q
    return inner
'''


def test_counts_signature_defaults_and_config_fields():
    # ModelConfig: 3 fields + 2 defaults (by, floor); run: y, z; inner: q
    assert count(SOURCE) == 8


def test_package_total_is_pinned():
    # a change that adds a justified option raises this pin and says so
    assert sum(counts(PACKAGE).values()) == 29
