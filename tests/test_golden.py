"""Pinned determinism: sha256 digests of seeded and analysis outputs.

Each case renders one seeded run to bytes (the ``write_csv`` trace, the
learned structure's JSON, the evaluation trace, or the CLI's csv output),
or one infinite-width analysis result (fixed points, condition reports,
the certified corridor, the exact chain, the ``analyze`` output, the quad
constructions' mixing weights, each construction's JSON with its mixture,
the ``enumerate`` output, the exact A_k/B_k coefficients, the width
scaling and phase reports, the achievable polynomials and their witness
trees, the dense fixed-point trees), and
compares its sha256 with a value pinned in ``GOLDEN``.  A change that
alters any seeded output fails here even if run-against-run determinism
still holds.  The values were taken with numpy 2.4.6; a numpy release
that changes PCG64 or ``Generator.random`` would change them too
(``tests/test_rng.py`` checks numpy's PCG64 seeding, and ``random``
against PCG64's raw stream).
"""
import csv
import hashlib
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from amptree.catalog import (GOLDEN as PHI, VALIANT_THRESHOLD,
                             dense_fixed_point, linear_threshold, one_step, quad4, quad5, quad6,
                             quad7, quad_k, soft_threshold, valiant)
from amptree.cli import main
from amptree.dynamics import certified_corridor, profile, verify_conditions
from amptree.learning import evaluate_learned, learn_threshold
from amptree.leveled import (LevelConfig, exact_level_distribution,
                             simulate_leveled, width_scaling_experiment)
from amptree.polyalg import fixed_points
from amptree.rng import generator
from amptree.stream import (StreamConfig, phase_progress_report,
                            simulate_stream)
from amptree.trees import (achievable_witnesses, activation, build_ak,
                           build_bk, enumerate_achievable, format_tree,
                           tree_polynomial)

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
    # alpha * k = 720: X is recorded at every step, and the weights older
    # than 708 steps are subnormal.
    "fallback": (linear_threshold(0.5),
                 dict(n=24, k=720, alpha=1.0, trials=3, input_p=0.45)),
    "quad4": (quad4(0.5), dict(n=24, k=500, alpha=0.0, trials=4,
                               input_p=0.47)),
}


def _stream(name: str) -> bytes:
    dist, kw = STREAMS[name]
    return _csv(simulate_stream(dist, StreamConfig(seed=77, **kw)))


def _phase_report() -> bytes:
    dist, kw = STREAMS["wild"]
    trace = simulate_stream(dist, StreamConfig(seed=77, **kw))
    return phase_progress_report(trace, dist.threshold).to_json().encode()


def _learned():
    rng = generator(5, 0)
    example = (rng.random(60) < 0.4).astype(int).tolist()
    return learn_threshold(levels=8, width=50, example=example, seed=11)


def _learned_json() -> bytes:
    return _learned().to_json().encode()


def _learned_json_wide() -> bytes:
    # 12,000 inputs: level-1 wiring indices have 1 to 5 digits.
    example = (generator(5, 2).random(12_000) < 0.4).astype(int).tolist()
    return learn_threshold(levels=3, width=1500, example=example,
                           seed=13).to_json().encode()


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
    "analyze": ["analyze", "--construction", "quad4", "--t", "0.5",
                "--u", "0.2", "--v", "0.8"],
    # The JSON summary, with the phase report.
    "stream-json": ["simulate", "--construction", "linear", "--t", "0.5",
                    "--mode", "stream", "--n", "16", "--k", "300",
                    "--alpha", "0.02", "--p", "0.4", "--trials", "4",
                    "--seed", "9"],
    "enumerate-json": ["enumerate", "--max-degree", "6"],
    "enumerate-csv": ["enumerate", "--max-degree", "5", "--format", "csv"],
    # Fixed points from the dense mixture.
    "analyze-soft6": ["analyze", "--construction", "soft_threshold",
                      "--k", "6"],
    # No dense mixture (its trees pass the cap): the scan of evaluate().
    "analyze-staircase": ["analyze", "--construction", "staircase",
                          "--params", json.dumps({
                              "breakpoints": [0.3, 0.7], "heights": [0.5],
                              "epsilon": 0.1, "delta": 0.1})],
}


def _cli(name: str) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(CLI[name]) == 0
    return buf.getvalue().encode()


SWEEP_CENTERS = (0.028, 0.064, 0.115, 0.22, 0.30, 0.45, 0.55, 0.70, 0.78,
                 0.885, 0.936, 0.972)


def _sweep(build) -> bytes:
    return repr([build(t).interior_fixed_points()
                 for t in SWEEP_CENTERS]).encode()


#: Five admissible thresholds per quad pair: both ends of quad4's range
#: and points near the ends of the others'.
QUAD_WEIGHTS = {
    "quad4": (quad4, (VALIANT_THRESHOLD, 0.45, 0.5, 0.55, PHI - 1.0)),
    "quad5": (quad5, (0.246, 0.35, 0.5, 0.65, 0.754)),
    "quad6": (quad6, (0.152, 0.3, 0.5, 0.7, 0.848)),
    "quad7": (quad7, (0.12, 0.3, 0.5, 0.7, 0.88)),
    "quad_k": (quad_k, SWEEP_CENTERS),
}


def _weights(name: str) -> bytes:
    build, ts = QUAD_WEIGHTS[name]
    return repr([[w for _, w in build(t).entries] for t in ts]).encode()


FIXED_POINTS = {
    "valiant": valiant,
    "quad4": lambda: quad4(0.5),
    "soft6": lambda: soft_threshold(6),
}

CONDITIONS = {
    "quad4": (quad4, 1 / 5, 4 / 5),
    "quad5": (quad5, 1 / 7, 6 / 7),
    "linear": (linear_threshold, 1 / 5, 4 / 5),     # fails: linear term
}


DISTRIBUTIONS = {
    "valiant": valiant,
    "linear": lambda: linear_threshold(0.3),
    "quad4": lambda: quad4(0.5),
    "quad5": lambda: quad5(0.4),
    "quad6": lambda: quad6(0.3),
    "quad7": lambda: quad7(0.2),
    "quad_k-low": lambda: quad_k(0.05),
    "quad_k-high": lambda: quad_k(0.97),
    "soft6": lambda: soft_threshold(6),
    "one_step": lambda: one_step(0.5),
}


def _tree_polynomials() -> bytes:
    # A_29 has coefficients past 2**53: exact only as integers.
    return repr([(tree_polynomial(build_ak(k)).coeffs,
                  tree_polynomial(build_bk(k)).coeffs)
                 for k in range(2, 30)]).encode()


def _conditions(name: str) -> bytes:
    build, u, v = CONDITIONS[name]
    return repr(verify_conditions(build(0.5), 0.5, u, v)).encode()


def _exact() -> bytes:
    firing, v = exact_level_distribution(quad4(0.5), 200, 0.45, 20)
    return repr(firing).encode() + v.tobytes()


def _witnesses() -> bytes:
    return repr(sorted((poly.coeffs, format_tree(tree)) for poly, tree
                       in achievable_witnesses(6).items())).encode()


#: The dense fixed-point trees can pass SEXPR_LEAF_CAP and so cannot be
#: formatted: each is its leaf count and its activation on this grid.
DENSE_GRID = np.linspace(0.0, 1.0, 101)


def _dense(target: float) -> bytes:
    tree = dense_fixed_point(target, 1e-3)
    return (repr(tree.leaf_count).encode()
            + activation(tree, DENSE_GRID).tobytes())


CASES = {
    **{f"leveled-{name}-{inputs}": (lambda n=name, i=inputs: _leveled(n, i))
       for name in LEVELED_DISTS for inputs in ("p", "bits")},
    **{f"stream-{name}": (lambda n=name: _stream(n)) for name in STREAMS},
    "learned-json": _learned_json,
    "learned-json-wide": _learned_json_wide,
    "learned-trace": _learned_trace,
    **{f"cli-{name}": (lambda n=name: _cli(n)) for name in CLI},
    "sweep-quad_k": lambda: _sweep(quad_k),
    "sweep-linear": lambda: _sweep(linear_threshold),
    **{f"weights-{name}": (lambda n=name: _weights(n))
       for name in QUAD_WEIGHTS},
    **{f"fixed-points-{name}": (lambda n=name: fixed_points(
        FIXED_POINTS[n]().mixture).to_json().encode())
       for name in FIXED_POINTS},
    **{f"conditions-{name}": (lambda n=name: _conditions(n))
       for name in CONDITIONS},
    "corridor-quad_k": lambda: repr(
        certified_corridor(quad_k(0.9).evaluate, 0.9)).encode(),
    "exact-quad4": _exact,
    "width-scaling-quad4": lambda: width_scaling_experiment(
        quad4(0.5), (0.2, 0.1), (0.1,)).to_json().encode(),
    "phase-report-wild": _phase_report,
    "achievable-7": lambda: repr(sorted(
        poly.coeffs for poly in enumerate_achievable(7))).encode(),
    "witnesses-6": _witnesses,
    **{f"dense-fixed-point-{t}": (lambda t=t: _dense(t))
       for t in (0.3, 0.57, 0.8)},
    **{f"json-{name}": (lambda n=name: DISTRIBUTIONS[n]().to_json().encode())
       for name in DISTRIBUTIONS},
    "polynomials-ak-bk": _tree_polynomials,
}

GOLDEN = {
    'achievable-7': '9c26fcf9438832bb1011a5f3a2fd13495efcb530d8b05a0c3c7e22bfa301ce46',
    'cli-analyze': 'd3587f5a440429354442725e7c4741173a32cf150a578e09b730a73604c18d49',
    'cli-analyze-soft6': 'c0a28f57559db7ac1606350b85ed2c658f98f6080b86f6c4cf752946f738cef6',
    'cli-analyze-staircase': '7a9d9da2bdef9acbc2279b814feb66bc3d361464fd756e6a397f027eea82021c',
    'cli-enumerate-csv': '45016d91ed34349da1964d792f73131c4e9963c5197a8b2e7f23345c82cbd509',
    'cli-enumerate-json': 'b1177e5fc1fefe0a573263efa9526d5fb1eb6e144481d8066f4d432653bafd62',
    'cli-leveled': 'fab67b57267a4698df89f87ce78f7c61a5868ccb98783c35d9ed7dac11946f9a',
    'cli-stream': '56b54f52d6d06b739317ea30f121c4390df020e268f9224d79e5314f9225197b',
    'cli-stream-json': '66c6d712bf5f41d60f6c8cb17f24cb689098db99584b108bd2995940da9037c0',
    'conditions-linear': '8bcb6f5f457d7321ce4163397293b63d4e516241385eee0d2924ff42547cb901',
    'conditions-quad4': '1d02968b8aba79dc2bd1b44e8606796fb459555c8ddb5818e913edbf993b0585',
    'conditions-quad5': 'e65aee72c62836efb9e64c786ccd3f477e162ae603af694ef3aff838bbbe2d83',
    'corridor-quad_k': '42158e39096f57ba908ef7f0e8e179143119d5bfe20a945f41e7a6a7c5705650',
    'dense-fixed-point-0.3': '604bcb3036b315d7c8611a0779ac5f09b75ec53444e747f3da3a31a2b34c2438',
    'dense-fixed-point-0.57': 'b437504c3cf08ad0b65da0dc07f7dd392045f39e9098917a1b83a3edb7a5bb5c',
    'dense-fixed-point-0.8': '2ad26e053a733642ca809f5631486ce9fa191b05b19c59e2c2b3b1927a4604e3',
    'exact-quad4': '4e90e221fef379c471f0af8ed7ea4df0578118585a6135dbebfd4f44b2892a95',
    'fixed-points-quad4': 'b11e2f86b228d875cdcbabb5e269bf7bbae5b5e219c3784fede3ab4071a3c26e',
    'fixed-points-soft6': '0e9a98e6da50496361cf14cefb4203ae069925b14df500cd44e27ae0f2bf62ba',
    'fixed-points-valiant': '2f7c75a16528845bfa462a7a078abc1684aa9e1d7bc7e7e87f6a1e196bc0db2b',
    'json-linear': '6f1bbcec829a93bd41c9665720c72122fa7b0b0212859dafb7b5c409f547339d',
    'json-one_step': 'd144c037cc10bad9d29aa88b235adabd2240d10a6ad4f2403c2e5d7a9f0c35f1',
    'json-quad4': '72acc96089d3cad8d415cdbbf1402b38dd6661dde65844653c7d3008c6326150',
    'json-quad5': '6d1e94365e77ab447adca6cbbe2e5742223b8622117910a798f9c027a58fec1e',
    'json-quad6': 'a324399a95ef5e2142c1d5c9ec091e0af2a96fc3d49374c35c9b906a4244cb4a',
    'json-quad7': '351a0b9d47a5d711fb7d9c11fca1ae6f3e17f0b68a117da6e5b985f7841fffd5',
    'json-quad_k-high': 'ed1641acdcdd9be2e3ca8da7706c57d39ca40b91d04e23911f020f8e0679c546',
    'json-quad_k-low': '5e557107e9918c50a286ab8a1e5fd2f0281b125091928fc64a75ce3a0e9952a3',
    'json-soft6': '6ef4db9f9ac01cb099db43dcc20a51fee1bca065ac20351af2540f645bf033a2',
    'json-valiant': '1fde1ec348096c534ffaca387f947b603d85ed9c79b1652d9a19da4a7f49d176',
    'learned-json': '918bd5a6d59ca30e2801ce3a00c77cee2733cd37637b08130c178f7104b79ab3',
    'learned-json-wide': 'c50aa3813e2c047052441dcfaac7467578c022c24ca5c345afddea7eacf1241c',
    'learned-trace': '474163ec1d69efd520a3ce757445ac45ac804af9d7c1b328b2086c3af17176ba',
    'leveled-linear-bits': 'e424aa57644d373c185b83bd3a1305996c60c90e87b29f1531d185911858b418',
    'leveled-linear-p': 'fef0ebf0a4b71c0bb208352bf6640eb5a73afd70c3fc1651492d5f45d529f925',
    'leveled-quad4-bits': 'f71b95f814527636c3042339c66c7448f68882d3406aa3c4f297f5a9ca3029cd',
    'leveled-quad4-p': '28fdbfdad8920bb7420ecb7351d4ba00a336b202b5228d852df3d2e0dcb12edb',
    'leveled-valiant-bits': '64966cd37ccc59d4072634465aa6c959e86387be13c22347c68c1e6f921860c5',
    'leveled-valiant-p': 'c95f4c6ed6a6e7fc6d8fdd65ffd96361b229a618022a550e2cd37e5d38fe4001',
    'phase-report-wild': '9814c15c2a41cc0b537fac91b6e3c5c7a560eb79ebfd3fde46ec3f19078836d4',
    'polynomials-ak-bk': 'a026e6ca0a331dba9e96f477e0afd341f283e8508615955f8c1243b03aca79fa',
    'stream-decay': '60af889078a9ca980c327532ea2c0c41fed01351edbbb4f9c2be0e25c5a8923a',
    'stream-fallback': 'f2100a51ff1123fa4b094cc4247ee95d5b83d60ac3a2bbadb2942b1a3ba90c3f',
    'stream-quad4': '985ace8d6b7531601915a0c8a254366402ced2823a82fd92071eab84c482b9c5',
    'stream-wild': '585a583eee7f2cc0e9a9e1410924973d40553b6b60348bd4bbec948581721cee',
    'sweep-linear': '0db62e15febcd8453a54fcedb7705def320fc6546c84068192d4971d26e23996',
    'sweep-quad_k': '763bcc44bb44f0e84fe4975acff6a7fc314ef363ca91cae7a0e23bcc3e3ef994',
    'weights-quad4': '647dc095dab515517b077f68a823ff4aac2fde3acfb347fcbaaab7b4b1808c93',
    'weights-quad5': '6a764d8a5883794f70765424d6a2b9146ba391fddcfc7661e05e7ea9e35c8bf4',
    'weights-quad6': '50c342817aba4915b821bc9245b7e6cb52045f4d411ef869ce82f8f59343206a',
    'weights-quad7': '207b0c37468a39d38159ef6a5316248a156d6ed78fd0e61911d1912bd706334b',
    'weights-quad_k': '1fab6b4500309182497eb1c1d605ded5c1020f37d75e386bde0ca80dcf004338',
    'width-scaling-quad4': 'ee87081d5ca6d45334835d74e0e8697da912b18a57d086db0b2df343f5fa9b61',
    'witnesses-6': '122dc22732c6e683dab1fc904739989be080fce225cac192d207d2c216b53ee4',
}


def digest(case: str) -> str:
    return hashlib.sha256(CASES[case]()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(case) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("kind", ["leveled", "stream", "profile"])
def test_csv_values_are_plain_numbers(kind):
    columns = slice(2, 3)
    if kind == "leveled":
        trace = simulate_leveled(quad4(0.5), LevelConfig(
            widths=(30, 25), n=BITS_N, seed=3, trials=4, input_p=0.42))
        values = trace.fractions
    elif kind == "stream":
        dist, kw = STREAMS["decay"]
        trace = simulate_stream(dist, StreamConfig(seed=77, **kw))
        values = trace.x
    else:
        trace = profile(quad4(0.5), np.float64(0.4), max_levels=3)
        values = np.array([trace.iterates, trace.errors]).T
        columns = slice(1, 3)
    rows = list(csv.reader(io.StringIO(_csv(trace).decode())))
    parsed = np.array([[float(v) for v in row[columns]] for row in rows[1:]])
    assert parsed.size == values.size
    assert (parsed.ravel() == values.ravel()).all()


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(name)!r},")
