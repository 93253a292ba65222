"""Byte-identity guard: the stdout of these runs must not change.

Each hash is the sha256 of the full stdout of ``agdim verify ...`` or
``agdim catalog --rep-max N``, recorded before the rewrite it guards (the
claim scans in numpy; then lemma-N, cor-decoupled and the catalog on one
family grid).  A change to any verifier's arithmetic, iteration order or
report assembly, or to the catalog export, that alters a single byte of a
passing run fails here.
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
    "cor-decoupled --rep-max 128 --k-max 16": (
        "5b43a75f2f9e284f6e29764ab12d5c77946285a1c8b4b23aeef50fb63516f12d"
    ),
    "cor-decoupled --rep-max 2048 --k-max 64": (
        "1890a0bd6abcc0b30193c8409cd34925623b35e4767eee627a7a3baf9d373a31"
    ),
    "lemma-N --sum-max 28": "f1c906ef0df6e7740d0a7e9bf1ee844a97d662839bd2e3222d0f8965e24dfd4c",
    "lemma-N --sum-max 40": "7f308afda8bce36b67551aaa7d56af53a2ffaebcdd9c47596eda918676c95658",
}

CATALOG = {
    2: "f73c030451e13ab6e9b246d6aaee6f94f1aa77bcde48be5fd6870092a56624d3",
    8: "f1a8fa714a142dc18fa3b41772d3fb836e4f473579e48f92eb9593e4ca2d58d1",
    64: "ef6ec0caea182993d7a9e3ddac1dfb707b5fefbdaa05a4617161835d1efe9c95",
    96: "7700b4a91c38d62145470eea7af6263395776426a083460b34c79949a6251161",
    256: "0d873a311cb6350126b1d8e04b0911d36ed023adf0093342c27877fc8932e410",
}


@pytest.mark.parametrize("args", list(GOLDEN))
def test_stdout_unchanged(capsys, args):
    code = cli.main(["verify", *args.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[args]


@pytest.mark.parametrize("rep_max", list(CATALOG))
def test_catalog_stdout_unchanged(capsys, rep_max):
    code = cli.main(["catalog", "--rep-max", str(rep_max)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG[rep_max]
