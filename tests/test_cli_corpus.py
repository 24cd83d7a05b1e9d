"""The CLI corpus at smoke sizes: two runs agree byte for byte, and every
run is pinned.

tests/cli_corpus.py holds the run list; run as a script, it prints the
digests that are diffed between two trees.
"""

from __future__ import annotations

import hashlib
import json

import cli_corpus

#: sha256 of each run's digest line, each checked equal under
#: OPENBLAS_NUM_THREADS = 1 and = 2.  The logit and exponential runs are
#: pinned too since SLSQP runs on one thread of scipy's OpenBLAS; their
#: bytes still follow the BLAS build.
PINNED = {
    "solve-hinge-out": "b636f1e6efac37cfc49e51bbb496e1ea70fca2f6c0aa1503c0f6d9b1c820a05b",
    "solve-hinge": "f8db34bb6649e51f2104d54591ea141f089d7cafe796cf1668c97f2242142416",
    "solve-sample-too-small": "a699b5861bcf0188b60cb6ba041ff6aecc6c7857fdd1f19aa3eda76a621243e6",
    "ccp-hinge": "e5bc4662dfe54c1e507020ff0ba2dc2369845b4f6ff5eb0a93a1ac21fa5a8a73",
    "verify-lemmas": "d1fc4115c2036a517c5aac650f0b0a6c9ead72260f3787a45a3163deffe703d0",
    "counterexample": "5c9242f412237252c2fc03908e0fc99a5d3396155b5242921f76017463ca9bd8",
    "coverage-prop31": "e7c1db5eff631c6c9d17cd7701c3e2c8840b83c25aa1ac0fec9363087f0481a4",
    "rate-prop31": "4d274cf123bea33f7ef59ef55995e4d87c9f260f24a852a2eed3c26a1a8554dd",
    "rate-gaussian": "c176379d53117d866a5829e7d79d828cf59516ed83ead9eee9f36cc9deedc758",
    "sampling-prop31": "088691262c3618cb1efe7fbba42aeda4800f98d32b356ed9b03c370cd58b2b90",
    "sampling-custom": "5b2f40a1114060bab0e9da4e8ea2a8cf9cc80cf27ccfb6886e9cfcd6708c7bcb",
    "ccp-prop31": "208038a2e0daf5c575da935a63338ce9df5b35fcc23898971395b1e4f3c3aa2b",
    "ccp-custom": "909a6a305ef3c360c0ee2ec208b39a7e512062d6861bb2d4bc827a15de4b5328",
    "coverage-custom": "21da9c413310ab953c14f276b3eb4fd6b13db5d36f0e569baef2790ce3984e71",
    "solve-logit": "61986a7b15c140638fd1eb4c72327f4951ef2e138048e1acd0ea39e73b07f8f4",
    "solve-exponential": "5cdf0d6a1d3001eac7f9f5668362066e4c4e40a132c72e8dbb4f8b3a10f51572",
    "solve-exponential-infeasible":
        "cb625d3478bacdc110a6e719c63307492ecdbf601cc081f7916d3f5b9973138c",
    "ccp-logit-infeasible": "465854173ba6c92a7c286e6b2056df15c4be682aecb3c5c7f459ddb82b0048a7",
    "coverage-gaussian-logit":
        "216bb655324d8637de2007abe3227637e3da84c6007536272356a9acd423f625",
}

#: the error exits the corpus must keep reaching
ERRORS = {"solve-exponential-infeasible": "infeasible",
          "solve-sample-too-small": "sample_too_small",
          "ccp-logit-infeasible": "infeasible"}


def _corpus(root):
    return {name: cli_corpus.run(root, name, argv)
            for name, argv in cli_corpus.prepare(root, cli_corpus.SMOKE)}


def test_the_corpus_runs_to_the_same_bytes_twice(tmp_path):
    first, second = _corpus(tmp_path / "a"), _corpus(tmp_path / "b")
    assert first == second
    assert all(r["exit"] == 0 for name, r in first.items() if name not in ERRORS)
    for name, category in ERRORS.items():
        assert json.loads(first[name]["stderr"])["error"] == category
    digests = {name: hashlib.sha256(cli_corpus.digest_line(name, r).encode()).hexdigest()
               for name, r in first.items() if name in PINNED}
    assert digests == PINNED


def test_key_differences_name_each_moved_key_with_its_largest_gap():
    ours = {"solution": {"weights": [0.25, 0.75], "gap": 1e-14, "status": "optimal",
                         "iterations": 3},
            "trials": [{"x": 1.0}, {"x": 2.0}], "same": [float("nan")], "count": 4}
    theirs = {"solution": {"weights": [0.375, 0.6875], "gap": 0.0,
                           "status": "uncertified", "iterations": 3},
              "trials": [{"x": 1.5}, {"x": 1.0}], "same": [float("nan")], "extra": 1}
    diffs = dict(cli_corpus.key_differences(
        "stdout", json.dumps(ours).encode(), json.dumps(theirs).encode()))
    assert diffs == {"solution.weights[]": 0.125, "solution.gap": 1e-14,
                     "solution.status": None, "trials[].x": 1.0, "count": None,
                     "extra": None}
    csv_a = b"trial,true_type1,status\n0,0.1,ok\n1,0.5,ok\n"
    csv_b = b"trial,true_type1,status\n0,0.1,ok\n1,0.75,fail\n"
    assert cli_corpus.key_differences("trials.csv", csv_a, csv_b) == [
        ("status", None), ("true_type1", 0.25)]
    assert cli_corpus.key_differences("trials.csv", csv_a, csv_a) == []
    assert cli_corpus.key_differences("stderr", b"", b"Traceback") == [("", None)]
