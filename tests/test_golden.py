"""Pinned determinism: sha256 digests of seeded outputs.

Each case renders one seeded run to bytes (the ``write_csv`` trace, the
learned structure's JSON, the evaluation trace, or the CLI's csv output)
and compares its sha256 with a value pinned in ``GOLDEN``.  A change that
alters any seeded output fails here even if run-against-run determinism
still holds.  The values were taken with numpy 2.4.6; a numpy release
that changes PCG64 or ``Generator.random``/``integers`` would change them
too.
"""
import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from amptree.catalog import linear_threshold, quad4, valiant
from amptree.cli import main
from amptree.learning import evaluate_learned, learn_threshold
from amptree.leveled import LevelConfig, simulate_leveled
from amptree.rng import generator
from amptree.stream import StreamConfig, simulate_stream

BITS_N = 40
BITS = tuple(int(i % 5 < 2) for i in range(BITS_N))      # 16 of 40 ones

LEVELED_DISTS = {
    "valiant": valiant,
    "quad4": lambda: quad4(0.5),
    "linear": lambda: linear_threshold(0.45),
}


def _csv(trace) -> bytes:
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue().encode()


def _leveled(name: str, inputs: str) -> bytes:
    given = ({"input_p": 0.42} if inputs == "p" else {"input_bits": BITS})
    cfg = LevelConfig(widths=(30, 25, 30, 20), n=BITS_N, seed=2024,
                      trials=6, **given)
    return _csv(simulate_leveled(LEVELED_DISTS[name](), cfg))


STREAMS = {
    "wild": (linear_threshold(0.5),
             dict(n=24, k=600, alpha=0.0, trials=5, input_p=0.4)),
    "decay": (linear_threshold(0.5),
              dict(n=24, k=600, alpha=0.01, trials=5, input_bits=BITS[:24])),
    # alpha * k = 720 > 600: served by the prefix-tree engine, which
    # renormalizes its weights once the newest passes 1e250.
    "fallback": (linear_threshold(0.5),
                 dict(n=24, k=720, alpha=1.0, trials=3, input_p=0.45)),
    "quad4": (quad4(0.5), dict(n=24, k=500, alpha=0.0, trials=4,
                               input_p=0.47)),
}


def _stream(name: str) -> bytes:
    dist, kw = STREAMS[name]
    return _csv(simulate_stream(dist, StreamConfig(seed=77, **kw)))


def _learned():
    rng = generator(5, 0)
    example = (rng.random(60) < 0.4).astype(int).tolist()
    return learn_threshold(levels=8, width=50, example=example, seed=11)


def _learned_json() -> bytes:
    return _learned().to_json().encode()


def _learned_trace() -> bytes:
    rng = generator(5, 1)
    bits = (rng.random(60) < 0.45).astype(int).tolist()
    fraction, trace = evaluate_learned(_learned(), bits, sample=20,
                                       return_trace=True)
    return json.dumps({"fraction": fraction, "trace": trace}).encode()


CLI = {
    "leveled": ["simulate", "--construction", "quad4", "--t", "0.5",
                "--mode", "leveled", "--m", "30", "--levels", "6",
                "--n", "20", "--p", "0.45", "--trials", "5", "--seed", "9",
                "--format", "csv"],
    "stream": ["simulate", "--construction", "linear", "--t", "0.5",
               "--mode", "stream", "--n", "16", "--k", "300",
               "--alpha", "0.02", "--p", "0.4", "--trials", "4",
               "--seed", "9", "--format", "csv"],
}


def _cli(name: str) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(CLI[name]) == 0
    return buf.getvalue().encode()


CASES = {
    **{f"leveled-{name}-{inputs}": (lambda n=name, i=inputs: _leveled(n, i))
       for name in LEVELED_DISTS for inputs in ("p", "bits")},
    **{f"stream-{name}": (lambda n=name: _stream(n)) for name in STREAMS},
    "learned-json": _learned_json,
    "learned-trace": _learned_trace,
    **{f"cli-{name}": (lambda n=name: _cli(n)) for name in CLI},
}

GOLDEN = {
    'cli-leveled': '888bf3c21a80528c74047fc9c702af6fa39ac801b3ccf8ff9f50f2fc50862cf8',
    'cli-stream': '94c210bea9a197877f93773758371235ed5b73eb020a132a334f9fe4c486cc2d',
    'learned-json': '00c80155538d4b0fd9d097d2a92c72fddf68ae04c207506d5758622a8ee1bb23',
    'learned-trace': 'eca4fe156f3e26a2efbb45186b5d38e8be2c2b02319a362a208b2449454014dc',
    'leveled-linear-bits': '3530a1b7c4f04f3a496431af3774e5d50aef244eb713419b213878243b132b7b',
    'leveled-linear-p': '57d089b26c501b64ab54a07be23e0d97cc6b97e661105c81d1600da8ea6c859f',
    'leveled-quad4-bits': 'c0aa9b0f208c610ab8b81237a6d0793f5a33c270cd3e8ae3f48f39c28d678962',
    'leveled-quad4-p': 'eedd7736e79361a7c5499fc8332f7dbb63473e0bc5f6bb59b405d521b2bbea49',
    'leveled-valiant-bits': 'a47f7058ee5816cfba103e2c58f3c8c089bfcd025b006dd439555ced9104db3b',
    'leveled-valiant-p': '7cd7f404ee96f1370de2b510a7dddf8eb29cbb2f5dee58ed178345ed8b4e09eb',
    'stream-decay': '54a9cb2fdbe908bbd60ddbb5961f79a7657efce88e66dbfcf6034e92099371cc',
    'stream-fallback': '4cc63dbbfc5999a44f30d0fb5eae589f9322fc53a151491b489a0fd9cdb856fd',
    'stream-quad4': '20f6aa30fdc47524fb2ce989580f6df198d1c09b1269563017794da4aaf78ea2',
    'stream-wild': '8484d5b3e100fb899714cb3b867cabd1154a46c7c9c5e42308269c2fa115b038',
}


def digest(case: str) -> str:
    return hashlib.sha256(CASES[case]()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(case) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(name)!r},")
