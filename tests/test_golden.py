"""Golden digests of every CLI algorithm's output.

Each case solves a fixed-seed instance through ``semimatch.cli.main``,
directly and, for the distributed algorithms, under ``--simulate``.  The
assignment, the whole report without ``wall_time_s``, the trace file, the
``verify --check budget`` report and any dumped matchings are hashed and
compared with digests recorded before the solver table and the per-class
helper were introduced, so that refactors of the dispatch keep every
result, round charge and report format bit-identical.

The mid-size families were added, with their digests, before the matching
engine moved onto edge-indexed arrays.  The sparse ones reach augmenting
paths of length 5 to 9; ``weighted-heavy``, shaped like the benchmark's
seq-heavy instances, reaches 3.  Its ``seq`` assignments and reports were
re-recorded when cycle cancelling moved onto a growing forest (see
``test_layer_digests``); its matchings did not change.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from semimatch import write_instance
from semimatch.cli import main
from conftest import random_unit, random_weighted

INSTANCES = {
    "unit": lambda seed: random_unit(seed, nc=10, ns=5, p=0.6),
    "weighted": lambda seed: random_weighted(seed, nc=10, ns=5, p=0.6, normalized=False),
    "unit-dense": lambda seed: random_unit(seed, nc=6, ns=5, p=0.9),
    "weighted-dense": lambda seed: random_weighted(seed, nc=8, ns=5, p=0.9, normalized=False),
    "weighted-heavy": lambda seed: random_weighted(seed, nc=200, ns=200, p=0.05, max_weight=256,
                                                   normalized=False),
    "unit-sparse": lambda seed: random_unit(seed, nc=512, ns=512, p=2 / 512),
    "weighted-sparse": lambda seed: random_weighted(seed, nc=512, ns=256, p=2 / 256, max_weight=2,
                                                    normalized=False),
    # every client needs degree >= 2 for backup --r 2
    "unit-sparse-r2": lambda seed: random_unit(seed, nc=512, ns=512, p=12 / 512),
}

# (algorithm, instance family, extra solve arguments)
ALGORITHM_INPUTS = (
    ("seq", "weighted", ()),
    ("congest-unweighted", "unit", ()),
    ("congest-weighted", "weighted", ()),
    ("local-weighted", "weighted", ()),
    ("backup", "unit-dense", ("--r", "2")),
    ("backup", "weighted-dense", ("--r", "2")),
    ("seq", "weighted-heavy", ()),
    ("congest-unweighted", "unit-sparse", ()),
    ("congest-weighted", "weighted-sparse", ()),
    ("local-weighted", "weighted-sparse", ()),
    ("backup", "unit-sparse-r2", ("--r", "2")),
)
SEEDS = (1, 2, 3)
DUMPS_MATCHINGS = ("seq", "congest-unweighted")

GOLDEN = {
    "seq/weighted/1/direct": {"assignment": "6f5168893ae7f63b", "report": "2f2bfaad2c9607dd", "matchings": "74d834cde87dab11"},
    "seq/weighted/2/direct": {"assignment": "2e851aad2c48afd0", "report": "94cd7fcd31324a70", "matchings": "90164c220b76fbfa"},
    "seq/weighted/3/direct": {"assignment": "da8e6d047c2a9e7f", "report": "7396142afae8add7", "matchings": "20a69ebc0f0c6fac"},
    "congest-unweighted/unit/1/direct": {"assignment": "76cbfa2210ee64ec", "report": "af257b70fa79e369", "matchings": "ebc74bad4b0f363c"},
    "congest-unweighted/unit/1/simulate": {"assignment": "76cbfa2210ee64ec", "report": "1a8c88b2ef0fa0b2", "trace": "191aa9d7b3a5e7ce", "verify": "ee48e298321daa8f"},
    "congest-unweighted/unit/2/direct": {"assignment": "4f171ceba53a0807", "report": "26580d7240755590", "matchings": "2b167f7a8bdaf66b"},
    "congest-unweighted/unit/2/simulate": {"assignment": "4f171ceba53a0807", "report": "8522b239eec6cc64", "trace": "0d9ba3b662f75acd", "verify": "ee48e298321daa8f"},
    "congest-unweighted/unit/3/direct": {"assignment": "8ff92f8556cb2cb5", "report": "c20c4de51b973876", "matchings": "e390bb3d8192bce9"},
    "congest-unweighted/unit/3/simulate": {"assignment": "8ff92f8556cb2cb5", "report": "a7dcdb7639e8d51f", "trace": "fb31bfde05ad1c6c", "verify": "ee48e298321daa8f"},
    "congest-weighted/weighted/1/direct": {"assignment": "1749b65c7782ad0b", "report": "28ed3b4d80b90aae"},
    "congest-weighted/weighted/1/simulate": {"assignment": "1749b65c7782ad0b", "report": "b38f886959f59813", "trace": "41127270b4291156", "verify": "ee48e298321daa8f"},
    "congest-weighted/weighted/2/direct": {"assignment": "befbfeb535670726", "report": "92a3703346c925da"},
    "congest-weighted/weighted/2/simulate": {"assignment": "befbfeb535670726", "report": "c51df8d477e11e22", "trace": "a4d0daa38416ba82", "verify": "ee48e298321daa8f"},
    "congest-weighted/weighted/3/direct": {"assignment": "05fadb2afc8f1389", "report": "063f2a7b0f1e61e7"},
    "congest-weighted/weighted/3/simulate": {"assignment": "05fadb2afc8f1389", "report": "26d5a395a0326f1e", "trace": "f4c7b4248c1d761c", "verify": "ee48e298321daa8f"},
    "local-weighted/weighted/1/direct": {"assignment": "b34199e11b0322ac", "report": "e31176797589e723"},
    "local-weighted/weighted/1/simulate": {"assignment": "b34199e11b0322ac", "report": "881c50d2de400c08", "trace": "b24a9bb7ad773639", "verify": "896210db4de14bed"},
    "local-weighted/weighted/2/direct": {"assignment": "6f8aab17bb74f295", "report": "07a2d1fd95e643e7"},
    "local-weighted/weighted/2/simulate": {"assignment": "6f8aab17bb74f295", "report": "c0010dc726b8fe0c", "trace": "bbf14d8ca262cf2a", "verify": "896210db4de14bed"},
    "local-weighted/weighted/3/direct": {"assignment": "2615fe0c07635d41", "report": "ecf9107b09b3fdfe"},
    "local-weighted/weighted/3/simulate": {"assignment": "2615fe0c07635d41", "report": "f2f250a1f2186723", "trace": "99eb1aa30129bce2", "verify": "0b75d0d47adfdad3"},
    "backup/unit-dense/1/direct": {"assignment": "400bc3934724a93b", "report": "b0f859a3919e4305"},
    "backup/unit-dense/1/simulate": {"assignment": "400bc3934724a93b", "report": "bb7ad8cf5f573670", "trace": "2bcba2ef6b3ce595", "verify": "ee48e298321daa8f"},
    "backup/unit-dense/2/direct": {"assignment": "b27188803f1297b5", "report": "f1778735ab77b489"},
    "backup/unit-dense/2/simulate": {"assignment": "b27188803f1297b5", "report": "0101d34e4bbb2264", "trace": "49e4f58bce216c5a", "verify": "ee48e298321daa8f"},
    "backup/unit-dense/3/direct": {"assignment": "7cfa8e780c9c70ba", "report": "f06dec375dc1f5ae"},
    "backup/unit-dense/3/simulate": {"assignment": "7cfa8e780c9c70ba", "report": "2a4290a44eca659c", "trace": "f17ab7c1f363f6f3", "verify": "ee48e298321daa8f"},
    "backup/weighted-dense/1/direct": {"assignment": "05b44175d9ec1e70", "report": "9c8af02a5ac2dec0"},
    "backup/weighted-dense/1/simulate": {"assignment": "05b44175d9ec1e70", "report": "9847cddb69ce8bdc", "trace": "d7467befca661b92", "verify": "ee48e298321daa8f"},
    "backup/weighted-dense/2/direct": {"assignment": "88031e0248d292da", "report": "733c1fb4f51dcb6a"},
    "backup/weighted-dense/2/simulate": {"assignment": "88031e0248d292da", "report": "26b53015ff8d6391", "trace": "6e541edc944e0f80", "verify": "ee48e298321daa8f"},
    "backup/weighted-dense/3/direct": {"assignment": "aaf53d7c3b065082", "report": "359407b82f62354e"},
    "backup/weighted-dense/3/simulate": {"assignment": "aaf53d7c3b065082", "report": "11628ad93bcfd5e3", "trace": "5ebdd25309a13dfc", "verify": "ee48e298321daa8f"},
    "seq/weighted-heavy/1/direct": {"assignment": "0b9b5fa9dabeb8c7", "report": "f7a3645d2753b0d7", "matchings": "59dfdfc18bb8e000"},
    "seq/weighted-heavy/2/direct": {"assignment": "9ec8bb87f3f7a05d", "report": "30b5825d4991e200", "matchings": "e373e2db513961c4"},
    "seq/weighted-heavy/3/direct": {"assignment": "77804cd2468c4a14", "report": "7c3597873de931c9", "matchings": "8e1b16447452b136"},
    "congest-unweighted/unit-sparse/1/direct": {"assignment": "1dfde06bece33e70", "report": "b8c500744752102f", "matchings": "15834683aed56cde"},
    "congest-unweighted/unit-sparse/1/simulate": {"assignment": "1dfde06bece33e70", "report": "f05838de27b83d28", "trace": "837d3eacf86c6d87", "verify": "2733576d2e27169e"},
    "congest-unweighted/unit-sparse/2/direct": {"assignment": "5f3b34dc169043bd", "report": "5badbb9f5eb3a485", "matchings": "dcafca8fbe9a13fb"},
    "congest-unweighted/unit-sparse/2/simulate": {"assignment": "5f3b34dc169043bd", "report": "30f6a41f6fa74feb", "trace": "b21e53d2e4ae060b", "verify": "2733576d2e27169e"},
    "congest-unweighted/unit-sparse/3/direct": {"assignment": "de079a2a43e7fe1d", "report": "7d0ae889a47d9b69", "matchings": "8a1a9b665fb6eaea"},
    "congest-unweighted/unit-sparse/3/simulate": {"assignment": "de079a2a43e7fe1d", "report": "587181afc8f0c284", "trace": "dfcc39fd0f8937f1", "verify": "2733576d2e27169e"},
    "congest-weighted/weighted-sparse/1/direct": {"assignment": "623897818abbf15e", "report": "eed893f3cba1e89a"},
    "congest-weighted/weighted-sparse/1/simulate": {"assignment": "623897818abbf15e", "report": "7afc599a1160c7f8", "trace": "cd38e679cc17ea55", "verify": "2733576d2e27169e"},
    "congest-weighted/weighted-sparse/2/direct": {"assignment": "6301846c68c5f6b9", "report": "fb98946a7c247c3b"},
    "congest-weighted/weighted-sparse/2/simulate": {"assignment": "6301846c68c5f6b9", "report": "739172549510ead7", "trace": "8e8198ac528e363f", "verify": "2733576d2e27169e"},
    "congest-weighted/weighted-sparse/3/direct": {"assignment": "3f35f38975da41d8", "report": "b805ddfb23d9aa1f"},
    "congest-weighted/weighted-sparse/3/simulate": {"assignment": "3f35f38975da41d8", "report": "ffa8d92a09f81e65", "trace": "db43a209551a99b3", "verify": "2733576d2e27169e"},
    "local-weighted/weighted-sparse/1/direct": {"assignment": "45a24883439aff5a", "report": "8f660e909191a0b8"},
    "local-weighted/weighted-sparse/1/simulate": {"assignment": "45a24883439aff5a", "report": "5bc7a29a65f741bc", "trace": "20f21149f35397a5", "verify": "b89973c2e8830deb"},
    "local-weighted/weighted-sparse/2/direct": {"assignment": "6cf751758461610f", "report": "f84bdd2d82864185"},
    "local-weighted/weighted-sparse/2/simulate": {"assignment": "6cf751758461610f", "report": "41e3bab9801eab0c", "trace": "3fd2eda9f17a64f8", "verify": "675d897e055b753a"},
    "local-weighted/weighted-sparse/3/direct": {"assignment": "5410a5d8112bf1fb", "report": "392c7c93b04e987c"},
    "local-weighted/weighted-sparse/3/simulate": {"assignment": "5410a5d8112bf1fb", "report": "919d4a611c1b324b", "trace": "88fdcefe47872821", "verify": "675d897e055b753a"},
    "backup/unit-sparse-r2/1/direct": {"assignment": "1dacae429327bcd8", "report": "327960e5298359a3"},
    "backup/unit-sparse-r2/1/simulate": {"assignment": "1dacae429327bcd8", "report": "21399a3c7c2e996e", "trace": "78168e28a0b429a7", "verify": "2733576d2e27169e"},
    "backup/unit-sparse-r2/2/direct": {"assignment": "c5694e8d0cfb9761", "report": "2b491c776f45ebc9"},
    "backup/unit-sparse-r2/2/simulate": {"assignment": "c5694e8d0cfb9761", "report": "73da36c4be6a0521", "trace": "601b32c280b2cd91", "verify": "2733576d2e27169e"},
    "backup/unit-sparse-r2/3/direct": {"assignment": "f86127c7819e2e01", "report": "c2fc2d807eed24c8"},
    "backup/unit-sparse-r2/3/simulate": {"assignment": "f86127c7819e2e01", "report": "26177c303cf49db7", "trace": "d4d1c6bd2003b66a", "verify": "2733576d2e27169e"},
}


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _cli(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, (argv, err.getvalue())
    return out.getvalue()


def run_case(tmp_path, algo: str, family: str, seed: int, extra, simulate: bool) -> dict:
    path = tmp_path / "instance.json"
    write_instance(INSTANCES[family](seed), path)
    argv = ["solve", path, "--algo", algo, *extra]
    trace_path = tmp_path / "trace.json"
    dump_dir = tmp_path / "dumps"
    if simulate:
        argv += ["--simulate", "--trace-out", trace_path]
    elif algo in DUMPS_MATCHINGS:
        argv += ["--dump-matchings", dump_dir]
    report = json.loads(_cli(*argv))
    del report["wall_time_s"]
    record = {
        "assignment": _digest(json.dumps(report["assignment"], sort_keys=True)),
        "report": _digest(json.dumps(report, sort_keys=True)),
    }
    if simulate:
        record["trace"] = _digest(trace_path.read_bytes())
        record["verify"] = _digest(_cli("verify", path, trace_path, "--check", "budget"))
    elif algo in DUMPS_MATCHINGS:
        files = sorted(dump_dir.iterdir(), key=lambda p: int(p.stem[1:]))
        record["matchings"] = _digest(b"".join(p.name.encode() + p.read_bytes() for p in files))
    return record


def all_cases():
    for algo, family, extra in ALGORITHM_INPUTS:
        for seed in SEEDS:
            for simulate in ((False,) if algo == "seq" else (False, True)):
                key = f"{algo}/{family}/{seed}/{'simulate' if simulate else 'direct'}"
                yield key, (algo, family, seed, extra, simulate)


CASES = dict(all_cases())


@pytest.mark.parametrize("key", list(CASES))
def test_golden_digest(tmp_path, key):
    assert run_case(tmp_path, *CASES[key]) == GOLDEN[key]


def test_simulated_result_matches_direct():
    for key in CASES:
        if key.endswith("/simulate"):
            direct = key.removesuffix("/simulate") + "/direct"
            assert GOLDEN[key]["assignment"] == GOLDEN[direct]["assignment"], key
