"""The groups of tests/digest.py that no OpenBLAS kernel moves, pinned.

The model-free groups give the same bytes under every kernel
(test_pipeline.py checks that), and `weights` uses no BLAS: seeded draws
and float32 packing only. So a change to any of them is a change to the
program, or to numpy's or scipy's arithmetic; the failure names both
versions. Refresh a pin only for a change meant to alter these outputs.
"""

import numpy as np
import scipy

from tests.digest import digests

# numpy 2.4.6, scipy 1.17.1
PINNED = {
    "features": "d613752e1c1eb6cf67ad94807c07cddd2723c57f014255bd32345f94d0a24dab",
    "periods": "9786adee2d4935387954546f0a758ab259cfbe0f1cc89ec16f1443ad4c69e080",
    "identity": "b87f6d39aaea563ecb897832c298097224eaffd5e980a912691d39291c78a717",
    "replay": "5a07385010f244ed59193c2c49b2417b5968d3dd2a6dbe73c9af40e3d2e8faa1",
    "weights": "ef46759512b4bbc932cf2971882abfd2d3a01e03ea4ad41f5b705c7cc5f519a3",
}


def test_model_free_digests_match_pins():
    got = digests(PINNED)
    changed = sorted(name for name in PINNED if got[name] != PINNED[name])
    assert not changed, (f"digest groups {changed} changed under numpy {np.__version__}, "
                         f"scipy {scipy.__version__} (pinned on numpy 2.4.6, scipy 1.17.1): "
                         f"{ {name: got[name] for name in changed} }")
