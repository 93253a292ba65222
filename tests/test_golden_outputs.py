"""Byte-identity guard: the stdout of these runs must not change.

Each hash is the sha256 of the full stdout of one ``agdim`` run, recorded
before the rewrite it guards: ``verify ...`` and ``catalog --rep-max N``
before the claim scans moved to numpy and before lemma-N, cor-decoupled
and the catalog moved to one family grid; ``explain``, ``tables``,
``dmax`` and every ``--schema`` before the maximal-subvariety cases moved
to one record each; ``tables`` with ``--table ag`` or ``--table mg`` and
``tables --check`` before the summary-table rows moved to one record each.  A change to any verifier's arithmetic, iteration
order or report assembly, to the catalog export, or to any rendered
table, narrative or schema that alters a single byte of a passing run
fails here.
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
    # the claim's ceiling; recorded before the row loop decided each row with one min
    "lemma-dmax --g-max 100000": "bf65e85a3f45b6105fa4cc5d5e25945e8da221b310734a19451c7a0d7b16916c",
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
    # the smallest size of the query benchmark's catalog ops
    32: "039d6f588fe797b45ad0079b3a4b094e21a0fd3cbcaf7cc9de9bf2500bc2374a",
    64: "ef6ec0caea182993d7a9e3ddac1dfb707b5fefbdaa05a4617161835d1efe9c95",
    96: "7700b4a91c38d62145470eea7af6263395776426a083460b34c79949a6251161",
    256: "0d873a311cb6350126b1d8e04b0911d36ed023adf0093342c27877fc8932e410",
    # every case, duality and forced-compact flag the families have, all
    # 19; recorded, like 32, before the export read its rows from the grid
    300: "f9552800692e0c41792192eddb2d2fe726ce4cb723645e101691d891e112586b",
    # 263831 cases: several family-I pieces, and row blocks that straddle
    # them; recorded before the rows took one template per record layout
    1024: "c7be08b2968d5f036618edeb668dc15c0fddb09bf147bf66c5a19c1aad929f8b",
}

# explain G for G in 1..40, 100, 1001 and 4096; every tables form, with each
# --table and --check; dmax over 1..300; every subcommand's --schema.  The
# dmax json runs over 5, 1..1200 (three row blocks) and a range past the
# int64 kernel's ceiling were recorded before those rows took one template.
OUTPUTS = {
    "explain 1": "fdd7447bb3228648a64d74a62ae3d6ebc971a13fd33aaed5811ea2ce2de0e85c",
    "explain 1 --format json": "2cc0fdd0fb5d6caef2d4f1e8955af0ba0b98d1f0a54836896809e67393ce1b3b",
    "explain 2": "289e0f081f42d29dbfb2b92e6a7432736084bbe4815c1bf7cad3921016bc9cf5",
    "explain 2 --format json": "f20b29467cc51eb46d10084ad193bbdea75db83b613b952c7e2052714a51058f",
    "explain 3": "1f53ef099fdba107070594dbc01652714716cbaf8273e3da0ada42c65117a3f7",
    "explain 3 --format json": "308b31ba832db4fc82cc0923c8718a340a0d8495d1e00c097d676108984540fd",
    "explain 4": "34d4e02a6cb26caa91f7a85084b4125cb2c0323c0ebbfe247d004ef1d79a34f6",
    "explain 4 --format json": "decf621ea5656109bf05f2a3136ea645616f6a431a08f2ebc45e33770b42a989",
    "explain 5": "056167045cc530ecdf3ebefec2f900dc2b0832090fe234050486ac10a3d9a00c",
    "explain 5 --format json": "1ddce300a5b4f676aa94f607d112de04799243c0536dd2f806d47812c461c8a4",
    "explain 6": "2c39a8e459e716f8031b4e5e8c709ab07fe0c313919c1a949eca2fd9a2fcc1ea",
    "explain 6 --format json": "7771edd5e9bb494889811e54a5f97d050d8d4bfb0cbea878ccd367eb919545db",
    "explain 7": "42280b9fc8839efa3010a3d38fe7751d6f8c173a4a36ef783d4d02a5cea66ab6",
    "explain 7 --format json": "88f45fa70ac7c3af8875c113e6881f80a21d1c983c7f8acaddcf8a3c9638cc6d",
    "explain 8": "fb3db77fc34bafc15436ccc286b4cfd30e8604af8cfecfc21901f748748e7d93",
    "explain 8 --format json": "5d329a9f644de7d5617864e2aeac3614932a330df2fc3d11297bc31ae15d1dda",
    "explain 9": "af17d5ba59e54f729119be7ba77e3d9913ebbe1a3e22e6781604919d3e1bd83b",
    "explain 9 --format json": "cdf7ee7b4acf16522d09cf2a5a9632ab40b56cd3bd37d36ee393e72c174dafdf",
    "explain 10": "dbf20d4dd4ca199b0881ccf4a371ef1ae2a4973259fbca530826e3e46ad22cfc",
    "explain 10 --format json": "4fc82ac7429471465bc6c3644b7c8ff6e85a05ab22c7fc8fa372d41e46d7937d",
    "explain 11": "604ee97e3d06f286f5ff2b7ae2e6d3e27e8b094b42fda6ac6e00aeb4b9159809",
    "explain 11 --format json": "ee243a5735d3e4006e035f9ad95fad9c11bc131ff5f9e566398a18b91fd7e4ac",
    "explain 12": "b428b80902642805a391c3041ecbdadb93b845e6c985fbef320703aec7526484",
    "explain 12 --format json": "2bd7af4ea820f52f90bac03cf1b8f08d394a80cf41e23b9f0b42db8f8f8636c9",
    "explain 13": "31d400069b890de00d22179ce61a7e5259e2e8d13f7c75a52be2aa535b977e39",
    "explain 13 --format json": "7090ab66cde2de1ec3c2eba0c74a315e2d0b0ca2c29e6ef29919bd5f24cd3422",
    "explain 14": "84222afc4950a3596853299b0351b71ed0ce7ab75decadd1c740d6d8b1029273",
    "explain 14 --format json": "20819af6634157665919dfc6ac1e1971997ab7db41a42b6b730309dba8358b45",
    "explain 15": "bcbf65b550b915d6a6792bce6e6be70ada71a2050a1945ac3ee0d084c9076d79",
    "explain 15 --format json": "7dbf24f927e14c1521b6b99ae6b9e1248d11929370c0da568e61c5a5c895336b",
    "explain 16": "f80cb1cdf51a7d2b44eb08dc72a162e96c5531c7de392fb2e881c30a9c229b42",
    "explain 16 --format json": "73e8c114c468b417fb7d23a8c49293d8f6aa90993eb3d638b53237d20bfa492b",
    "explain 17": "ca2dd9f378a0927892971f7d32ba58ea043e57e3b8adda3d58944fc75067cac9",
    "explain 17 --format json": "f21cf7f2887210f0b6f7f66cf43ef6f97538d5009819675764f03f9dd8350206",
    "explain 18": "ef7960705ad43a6c6166adb5663dcc6ed4f2be934768ab67ffd92d0645d15b84",
    "explain 18 --format json": "cb90d99321cb85146483af1635844416eac59c2b6aaa06a268d0a2445a3b8425",
    "explain 19": "81d925679d32bbdea240922450afe8398c69f00ba271727a48344e864d54040c",
    "explain 19 --format json": "cc131080fc3216106b87953d0b9eec2dd6dd6e193072bd2c8caa396207465c53",
    "explain 20": "bffbcbf5bdd3d60b2b2609186cfe5187b3264667e6418b0dc4eb002ef97cc878",
    "explain 20 --format json": "cd66d43631554933c42c377df7967ead787da452f29d8118d92b6bd43acec260",
    "explain 21": "f19cc1db23de75687bc1e11f3322d2bb2868b8ac686182edf3e6f3762089ca06",
    "explain 21 --format json": "84ee2dd6a86d927e9b528bdda4a7e4f41ff0adf3eb8edaf82e9b99f1fa22c584",
    "explain 22": "f0816a0b4eeca5f84e6dcd741c13c62c8f4e78ed240639a9deca0693ab20259a",
    "explain 22 --format json": "1742e26a53c79b5a7cb586f8b2338f3ef9cb6d7fd9e1940e39494044969de067",
    "explain 23": "149cd604fc56798b60c4dbf01fc395c8a6c83753da010facc7d13d9a1b9f6c87",
    "explain 23 --format json": "0918cff2ea75ee4593a480fa9841721a07eee289d856a9e03e7d3cbb9c17ba2e",
    "explain 24": "69084183e47b1ed025a1ab4516405afcb10c38b910e617229092c2e082030c3f",
    "explain 24 --format json": "f8461dc49f9bbae8d6f63c18774ac8123060cdc348ba14db89d59ee83daaa90f",
    "explain 25": "65d84349b202e96e557e13b2256676a3b379c99b6ee221b02b3c501be5d4d0b4",
    "explain 25 --format json": "7d36a42638b9a34b16cda0146385d736e9ec7ec683b154b7ae95209b5b8362a0",
    "explain 26": "1b2afca67ff31096f8638684f82539d3bbf829c4da3cf1853879f0cc1a199d52",
    "explain 26 --format json": "559d788dd6e8261bfa4ed336b015367df4507c68a7835af959c9739730977966",
    "explain 27": "a85cabc98d3f8f553a23944c1cb8371209cb55b91f6520801c081bcdbd4a30ae",
    "explain 27 --format json": "92d5f6550d807f833707ca09e3383ffad6158db69f93e72e5bd9af8542d742f7",
    "explain 28": "0c26b7bed9e0bf64f4678b4946016bf92d928192d4d6e268e04bc9e9592ded30",
    "explain 28 --format json": "978553df7ab5a20cef648e556ffc96fdb278cbdfaaf5b2ffe336ced70241e992",
    "explain 29": "f6efe445a2663a6a65bffe1969d71a7ebdd49646fde08defb05d54b20ce037e5",
    "explain 29 --format json": "58d9efea04abcaaff0d41d4c4318ec8d1bb408d3171305886ff9847b71c4a957",
    "explain 30": "42528e02c7fc44573d2e542b2cd5f8345e39f4be3cd0b3eb6ec9c9e9620e319c",
    "explain 30 --format json": "8465c9ecb16795361fecb6a516c613f60daec47c8ae9dde555f6fb5018ebc9f3",
    "explain 31": "d6b181eeef4b31792af8ea50bce2f5887b5a8184caab3e4462976dc2314eb29f",
    "explain 31 --format json": "7f0c101136bea4735f822d0ce4d17a93e221875601f84a9eeb4cd47355bc4470",
    "explain 32": "6ded4189fd7859cbe5326307d68ebf154c77d035727afed3607a4fd98ebe3802",
    "explain 32 --format json": "632fb31937e1554c7c726a68617340e952b24ec4688a1b5e27bb97982c12e28b",
    "explain 33": "6a51033a6e9bc70751d6da6ba838e74c7d0f6cb5a753401e61ae5ec8ffeaa033",
    "explain 33 --format json": "4368391363305e5df2ff0bbdc563738a137a3ac5bd16a80ad3562f4f93550bf2",
    "explain 34": "84bd345644b18f2fa4d094e325d370e1222643b100cba93856284a6597e83af1",
    "explain 34 --format json": "7a39508d287a94878ce76a1e7b9e3a44115e248cf7451db31f1d9a7d04f68957",
    "explain 35": "2d98c3b6e5e4a4314275ec5898bcddf3298cefa47066486d44372d3f0c9be511",
    "explain 35 --format json": "8241f92e68e8cadbcb0e6cd3266bdd344ac1708fc3467037a4a5ab2c637cf1e0",
    "explain 36": "b78e555d40ce3bb5f99f0eebd90a22d9a3eca2beb2395585292315b8cb4d0748",
    "explain 36 --format json": "3788df355293087d68f7e7bcc85907c51d40c282f608e994cbf01f88944734a9",
    "explain 37": "a41c79f75bc34922d8c13d2319a935685c2b283cbdf184486084fbeb36e99a4c",
    "explain 37 --format json": "b7722d2b9a927fbccbe1973b6110ae40066f4cbc6e150efd85ad6f42d63a23f3",
    "explain 38": "cee8d52fda8b86477b1ea04677584917cddacbfa1fb4b5890a168d0336e3eb33",
    "explain 38 --format json": "669400e102b0a573f445797f7c96deafe7ac8d49a9299956e53b4e6fcf415251",
    "explain 39": "9be0c9298760d62003e85a47290b9517cdb95f2ab732f587d77773f7ac9f7199",
    "explain 39 --format json": "d1931230a212ec22a48ef15168334993559398be0e6b4a9fd348d2ccc8eff1f5",
    "explain 40": "6dea3c079ec11a8a84a5f57b0f230efb331414b5aadc4675c05ee7d6b082ef73",
    "explain 40 --format json": "c54a97994d95187c8020275d9b4d7aefff90f99a4c15208da9ff5930c28450bb",
    "explain 100": "6f9e20231e8223ba4c897c95340ceaa431f0649deaed7cc4347f0dac069ad8c6",
    "explain 100 --format json": "7c403370b3718a8563e42515e30314e1fd8617cb2af2545b2f3a640a258c539f",
    "explain 1001": "6a123b37ba580154a0a49403c5bf95bbcfaf86eae7f342d9b1cccfe3ad6b2c6b",
    "explain 1001 --format json": (
        "8dfca142f00b50ef7000fb6924d7f6c2411fcfac49f9e7350cddccf447d94bb3"
    ),
    "explain 4096": "b064ca2de2410dfa1b71a429e205d88345ed7cb50f9b1563267b94bdd323186e",
    "explain 4096 --format json": (
        "1b01832108d1adc45deec42d529a82bb3f03db9a0c09ac360abdd3cd9411d670"
    ),
    "tables --format markdown": "7983edfe79dabdca78d5981e233443f0395a6f5e444f4782500edc280bdc29d3",
    "tables --format markdown --conjectural": (
        "c74c48403f17726e42be1f2d3860024d7e3932ebdbdbb46ad68a8058dee38472"
    ),
    "tables --format csv": "180ddb1529a90837ebe5b7e5f035aac5279bcf9c78a422b4fe0954ed47fbef88",
    "tables --format csv --conjectural": (
        "6a448395c90a4ce15ead99891ba35b0cb64a0ebe86f9758eb96846f66a8338bd"
    ),
    "tables --format json": "448e79504cc890ce4be3ba5376d702ea37ada2437937e5b4b39bcb7e655f640f",
    "tables --format json --conjectural": (
        "4defd88877bf5282bcce8c3daab48ec0377f4eed0a08a48d798b4d84cf49b3fb"
    ),
    "tables --table ag --format markdown": (
        "4aecfde0e29a6095488a154210f044e2f8a14e1ee59f0e80fa41bd0091d2edfa"
    ),
    "tables --table ag --format markdown --conjectural": (
        "4aecfde0e29a6095488a154210f044e2f8a14e1ee59f0e80fa41bd0091d2edfa"
    ),
    "tables --table ag --format csv": (
        "44f0844cc25538af728c2161db8c8ea20896f6faa2b2725238c42d63ce4815ac"
    ),
    "tables --table ag --format csv --conjectural": (
        "44f0844cc25538af728c2161db8c8ea20896f6faa2b2725238c42d63ce4815ac"
    ),
    "tables --table ag --format json": (
        "bbab37f75e376bb7fc4943766115a792e18fb7c2cfb091ee0a43b78c89850b0b"
    ),
    "tables --table ag --format json --conjectural": (
        "bbab37f75e376bb7fc4943766115a792e18fb7c2cfb091ee0a43b78c89850b0b"
    ),
    "tables --table mg --format markdown": (
        "112e7006be7d241211b4d63b816e4f8a96258df655b4bbe6646511ffbe460484"
    ),
    "tables --table mg --format markdown --conjectural": (
        "e0d836cad931cdd4bdcdebb4e0662979ac8ebfdbf0f97a58f285a063b04c1188"
    ),
    "tables --table mg --format csv": (
        "c42dd108442cd5eab6858ed09435cf38ec9cea1126837f9f5b27ff161735c870"
    ),
    "tables --table mg --format csv --conjectural": (
        "c74dfaec907abd5c39622f3234da3db8e52adfe65265ca52ac74d3c8d79a9068"
    ),
    "tables --table mg --format json": (
        "0724fcf064d09fba1ad257ebcd045a8a6d898ce4cee1317fcab6758f0493e4a5"
    ),
    "tables --table mg --format json --conjectural": (
        "43dd5e618d8f7ceb7564dd244fe8b35447cd52dfd4e6b9325e96bc583ec85584"
    ),
    "tables --check": "47d5eaa1cfbaa2f8c521fe92d2844142f94e0a47f510d5bb9851537e0cf51ed6",
    "tables --check --table ag": "f1039e89f673aa307ac059e7dab7bf065542e7b2f7b582932af746ca7288d745",
    "tables --check --table mg": "106dcd611b5dc43bd9493c11dc54f89137a4bd167671d67caf431b2c3cc090dd",
    "tables --check --conjectural": (
        "c054ce1a9d004af9e08ed673d61032ed35adebe296763cdbd4d2fd90f98ce611"
    ),
    "tables --check --table mg --conjectural": (
        "59657bf0e50f93ea8c78220fcd984a3204d2f54413927348668321de5a08f2ae"
    ),
    "dmax 1..300 --format markdown": (
        "108b6ad23fbbfb5e1697f2583bf1065f9389f2ef403b49fa5792c08919768cc9"
    ),
    "dmax 1..300 --format csv": "a98557efc3d3c7e4f34112bb982c1dd1477c111f45ccc16986e288ec0ebf6739",
    "dmax 1..300 --format json": "a3b506f16c7c48b3a9d732b5ec638177e8a67f0fa4a0052ccbd2fc35b0deaad0",
    "dmax 5 --format json": "635f425c27cefcda85e5f5f0cb36fbc8c92970e3d557eb9c221a11758a35f1c6",
    "dmax 1..1200 --format json": (
        "788c222d3ae25dab81a1b81ecbbe8ce68a104d26eaa5680f260ca02e674ce45c"
    ),
    "dmax 3999999990..4000000010 --format json": (
        "104abcd962b596cbf5df059b2119a313695a7cf0b763ba37ac6b794e5ccbd461"
    ),
    "dmax --schema": "2ae595be6691dfa4adf89cb6ec940392e5073cb0ec9a902e49e89b7534e04320",
    "tables --schema": "5f5781fb5de661a97151b9ce4c795563f1be4e1a92b63f4ccde05f96c5f2ee72",
    "verify --schema": "7762cc3bf99d4f58408c96c242bc073ce8954a750148cb45eeaac2a0c258b81d",
    "explain --schema": "f10ca72de4f2584ea68b19e195326a1559481fd4e53fda0e5cd0d3778efe7750",
    "catalog --schema": "a0f3a7e7c4e8bbcb8df22556696015d2773302522cc5e1d4e0b87b295585f073",
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


@pytest.mark.parametrize("args", list(OUTPUTS))
def test_output_unchanged(capsys, args):
    code = cli.main(args.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUTS[args]
