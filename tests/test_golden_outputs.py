"""Byte-identity guard: the stdout of these runs must not change.

Each hash is the sha256 of the full stdout of ``agdim verify ...`` as
recorded before the claim scans were rewritten in numpy.  A change to any
verifier's arithmetic, iteration order or report assembly that alters a
single byte of a passing report fails here.
"""

import hashlib

import pytest

import agdim.cli as cli

GOLDEN = {
    "lemma-dmax": "2e3a0bcb74a59d922c3ffcdf0da1b8285590af9e3e36f5fc1f25daf1a0caf1b1",
    "dmax-piecewise": "c841f9a620f495f81ccefd6e67a7ddb65366ec5561aab61d2d5596e10ea8884e",
    "f-bounds": "602b9fceee77e0649239b0db28682cfa4eb3327947fbc21fe42bf9a589755c55",
    "lemma-N": "a10c29bcafa5e9bb0457e74c15d6758c8ec7ca076f3e9d0ee5886d28d8e25b81",
    "claim-F": "279718392d1776fcab589d8fcbd00c335dca6d1f6a1f57714625bb80509fa66f",
    "prop-estimate": "68fcc8fa9505303d5350d9bcfe923872fec2495b001b790c1d0fc31962686074",
    "remark-domination": "1397c1572120cbee289231a76de7a0fec228a4182665ff60da9b26b3fda14bb6",
    "cor-C": "af32ba723225442aab2ab8ba2c9c15a426327712e2b4429b43cc50190f7ddc10",
    "cor-decoupled": "49e59e26ecdb03e51bb8f498ae8f18387747ac45f04a0ae8587814c50f0813c8",
    "lemma-dmax --g-max 12000": "d16ebf71cb8d71c72c1abb2ea7c6c3659f1512eda69dee63bb07a4e6b1914437",
    "prop-estimate --g-max 200000": "b11cc05c38913532d9bedd5bd502cbcd3afc808c00e3039d1557f381bfe27cce",
    "claim-F --s-max 256 --delta-max 256 --k-max 256 --n-max 256": (
        "ba207b9d0acd54b6160cd5be9efabb17d99b231d5fd5d97d86017eba23d3c6ac"
    ),
    "remark-domination --r-max 256 --k-max 256": (
        "f6a23001ab14bca51827d1f714c82d70ec5c894ff8b2f761bb27cc411fe6fdc6"
    ),
}


@pytest.mark.parametrize("args", list(GOLDEN))
def test_stdout_unchanged(capsys, args):
    code = cli.main(["verify", *args.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[args]
