"""Generated bad arguments for every public callable.

``VALID`` holds one valid call of each function in ``evokernel.__all__`` and
of ``Graph``, with every parameter named. From it each parameter gets bad
values of the kind its valid value has, substituted one at a time:

- an integer: bools, floats (NaN, infinities and integral ones included),
  fractions and negatives;
- a real: NaN, the infinities, bools and negatives;
- an array: empty and 0-d arrays, wrong shapes, negated entries, a
  non-contiguous view, and one entry replaced by NaN or an infinity (float
  arrays) or by a fraction or a bool (integer arrays);
- a config (``BoltzmannConfig``, ``MetricConfig``, ``ExperimentConfig``):
  each numeric field, by the rules above;
- an object of the package (a config, graph, episode, spectrum, heat kernel
  or state, distribution, dataset, model or report) or a numpy ``Generator``:
  text, ``None`` and a bare ``object()`` (``OBJECTS``), and in place of a list
  of such objects a list holding one of them;
- and, whatever the kind of a number or array, a value of another kind
  (``HOSTILE``): ints beyond int64 and float64 range, complex values, text and
  bytes (numeric or not), numpy scalars of every dtype kind, 0-d and object
  arrays, ragged nested lists, ``None``, and empty and one-element sequences.

Strings, paths and bool flags are passed valid. Each call must return a
finite result or raise an ``EvoKernelError`` subclass, never a raw Python or
numpy error. A scalar that is never valid (a bool or a non-finite
real, a bool or a non-integer where an integer is expected) must raise.
``tests/test_errors.py::CALLS`` lists the known cases one by one; this test
looks for the unknown ones.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evokernel
from evokernel import (
    BoltzmannConfig,
    EvoKernelError,
    ExperimentConfig,
    Graph,
    GraphDataset,
    MetricConfig,
    WarpingResult,
)

from .conftest import DATA_DIR, star, triangle

_WORKDIR = tempfile.TemporaryDirectory(prefix="evokernel-generated-")
WORK = Path(_WORKDIR.name)

CONFIGS = (BoltzmannConfig, MetricConfig, ExperimentConfig)
METRIC = MetricConfig(wl_iterations=2, dim=64)
P3 = Graph(3, [(0, 1), (1, 2)], node_labels=[0, 1, 0])
LAP = evokernel.normalized_laplacian(P3)
SPEC = evokernel.spectral_decompose(LAP)
HK = evokernel.compute_heat_kernel(LAP, SPEC, 0.5, "exact")
STATE = evokernel.propagate_heat(HK, 1.0)
TIMES = np.array([0.0, 0.1, 0.2])
DATASET = GraphDataset(
    graphs=[triangle(), triangle(), triangle(), star(3), star(3), star(3)],
    labels=np.array([0, 0, 0, 1, 1, 1]),
    name="TRI-VS-STAR",
)
EPISODES = [
    evokernel.generate_episode(g, TIMES, seed=1, graph_index=i) for i, g in enumerate(DATASET.graphs)
]
D = evokernel.distance_matrix(EPISODES, METRIC)
K = evokernel.evolution_kernel(D).k
MODEL = evokernel.svm_train(K, DATASET.labels, np.arange(5))
M = evokernel.build_warping_matrix(EPISODES[0], EPISODES[3], METRIC)
CONFIG = ExperimentConfig(
    dataset_name="TRI-VS-STAR", time_length=0.2, folds=2, seed=1, wl_iterations=2, embedding_dim=64
)

VALID = {
    "Graph": dict(node_count=3, edges=np.array([[0, 1], [1, 2]]), node_labels=np.array([0, 1, 0])),
    "build_warping_matrix": dict(e1=EPISODES[0], e2=EPISODES[3], cfg=METRIC),
    "clip_psd": dict(k=K),
    "compute_heat_kernel": dict(lap=LAP, spec=SPEC, t=0.5, method="exact"),
    "delta": dict(g1=P3, g2=star(2), cfg=METRIC),
    "distance_matrix": dict(episodes=EPISODES, cfg=METRIC),
    "drop_node": dict(
        g=P3,
        dist=evokernel.heat_distribution(STATE, BoltzmannConfig()),
        rng=np.random.default_rng(0),
    ),
    "evolution_kernel": dict(d=D, gamma_scale=1.0, repair="clip"),
    "gdtw_distance": dict(m=M),
    "generate_episode": dict(
        g=P3,
        times=TIMES,
        cfg=BoltzmannConfig(),
        u0=1.0,
        seed=1,
        graph_index=0,
        method="exact",
        cumulative=False,
    ),
    "heat_distribution": dict(state=STATE, cfg=BoltzmannConfig()),
    "load_tu_dataset": dict(directory=DATA_DIR / "MUTAG", name="MUTAG"),
    "normalized_laplacian": dict(g=P3),
    "perturbation_gap": dict(lap=LAP, f=np.full((3, 3), 1e-3), t=0.5),
    "propagate_heat": dict(hk=HK, u0=1.0),
    "run_experiment": dict(cfg=CONFIG, dataset=DATASET),
    "spectral_decompose": dict(lap=LAP),
    "stratified_folds": dict(labels=DATASET.labels, folds=2, seed=1),
    "subgraph": dict(g=P3, kept=np.array([True, False, True])),
    "svm_predict": dict(model=MODEL, k_rows=K[5, :5]),
    "svm_train": dict(kernel=K, labels=DATASET.labels, train_idx=np.arange(6), c=10.0),
    "sweep_time_length": dict(cfg=CONFIG, lengths=np.array([0.1, 0.2]), dataset=DATASET),
    "wl_embed": dict(g=P3, cfg=METRIC),
    "write_sweep_csv": dict(
        reports=[evokernel.run_experiment(CONFIG, DATASET)], path=WORK / "sweep.csv"
    ),
}


# Bad values are drawn as (value, refused) pairs: a refused value must raise.
def _refused(value):
    return value, True


def _either(value):
    return value, False


def _bad_integers():
    never = st.one_of(st.booleans(), st.floats(), st.fractions().filter(lambda q: q.denominator != 1))
    return st.one_of(never.map(_refused), st.integers(max_value=-1).map(_either))


def _bad_reals():
    never = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
    negatives = st.floats(max_value=0.0, exclude_max=True, allow_nan=False, allow_infinity=False)
    return st.one_of(never.map(_refused), negatives.map(_either))


HOSTILE = [
    2**63, -(2**63) - 1, 2**64, 10**400, -(10**400),
    1j, complex(1.0, 0.0), np.complex64(1.0), np.complex128(0.5 + 1j),
    "x", "1", "1.5", "", b"1", b"x",
    np.bool_(True), np.int8(1), np.uint64(2**64 - 1), np.float16(0.5), np.longdouble(2.5),
    np.str_("1"), np.bytes_(b"1"), np.datetime64(1, "D"), np.timedelta64(1, "D"), np.void(b"\x01"),
    np.array(1), np.array(1.5), np.array(True), np.array("1"),
    np.array([1, None], dtype=object), np.array([1.0, 2.0], dtype=object),
    [[1.0], [1.0, 2.0]], [[0], [1, 1]], [[True], [True, False]],
    None, [], (), [1], [1.0], (True,),
]
# In place of an integer or a real these are always refused: no bool, text, complex
# number, None, sequence or object array is one.
_NEVER_NUMBERS = (
    type(None), str, bytes, complex, list, tuple,
    np.bool_, np.complexfloating, np.str_, np.bytes_, np.void, np.datetime64,
)


def _hostile(scalar: bool):
    """A fresh copy of each ``HOSTILE`` value, refused in place of a scalar if it is never a number."""

    def draw(i):
        value = HOSTILE[i]
        never = isinstance(value, _NEVER_NUMBERS) or getattr(value, "dtype", None) == object
        return copy.deepcopy(value), scalar and never

    return st.sampled_from(range(len(HOSTILE))).map(draw)


def _strided(a: np.ndarray) -> np.ndarray:
    """A non-contiguous view equal to ``a``."""
    wide = np.zeros(tuple(2 * s for s in a.shape), dtype=a.dtype)
    every_other = (slice(None, None, 2),) * a.ndim
    wide[every_other] = a
    return wide[every_other]


@st.composite
def _bad_arrays(draw, a):
    shapes = [
        a[:0],
        np.zeros((0,) * a.ndim, dtype=a.dtype),
        a.reshape(-1)[0].copy(),
        a[None],
        a[..., None],
        a.reshape(-1),
        a[:-1],
        _strided(a),
    ]
    if a.dtype.kind != "b":
        shapes.append(-a)
    if a.dtype.kind == "f":
        entries = st.sampled_from([math.nan, math.inf, -math.inf])
    elif a.dtype.kind in "iu":
        entries = st.one_of(st.booleans(), st.floats().filter(lambda x: not x.is_integer()))
    else:
        return draw(st.sampled_from(shapes))
    if draw(st.booleans()):
        return draw(st.sampled_from(shapes))
    bad = a.astype(object if a.dtype.kind in "iu" else a.dtype)
    bad.flat[draw(st.integers(0, a.size - 1))] = draw(entries)
    return bad if a.dtype.kind == "f" else np.array(bad.tolist())


# In place of an object of the package, or a list of them.
OBJECTS = ("x", None, object())


def _is_object(value) -> bool:
    return type(value).__module__.startswith("evokernel.") or isinstance(value, np.random.Generator)


def _kind(value):
    """The strategy of bad values for ``value``, or None where it is passed valid."""
    if isinstance(value, (bool, np.bool_, str, Path)):
        return None
    if _is_object(value):
        return st.sampled_from(OBJECTS).map(_either)
    if isinstance(value, list) and value and all(map(_is_object, value)):
        return st.sampled_from(OBJECTS).map(lambda bad: _either([bad]))
    if isinstance(value, (int, np.integer)):
        return st.one_of(_bad_integers(), _hostile(scalar=True))
    if isinstance(value, (float, np.floating)):
        return st.one_of(_bad_reals(), _hostile(scalar=True))
    if isinstance(value, np.ndarray) and value.dtype.kind in "biuf" and value.size:
        return st.one_of(_bad_arrays(value).map(_either), _hostile(scalar=False))
    return None


# Config fields a callable replaces before reading them.
OVERRIDDEN = {("sweep_time_length", "cfg", "time_length")}


def _substitutions():
    """(callable name, parameter, config field or None) for every substitutable argument."""
    cases = []
    for name, kwargs in sorted(VALID.items()):
        for param, value in kwargs.items():
            if isinstance(value, CONFIGS):
                cases += [
                    (name, param, f.name)
                    for f in dataclasses.fields(value)
                    if _kind(getattr(value, f.name)) is not None
                    and (name, param, f.name) not in OVERRIDDEN
                ]
            if _kind(value) is not None:
                cases.append((name, param, None))
    return cases


def _numbers(result):
    """Every number and array in a result, through dataclasses, dicts, lists and tuples."""
    if isinstance(result, WarpingResult):
        # The cumulative table's border is infinite by definition.
        yield result.distance
        yield result.cumulative[1:, 1:]
    elif isinstance(result, (int, float, np.number, np.ndarray)) and not isinstance(result, bool):
        yield result
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            yield from _numbers(getattr(result, f.name))
    elif isinstance(result, dict):
        for item in result.values():
            yield from _numbers(item)
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from _numbers(item)


def _call_is_finite_or_package_error(name: str, kwargs: dict, refused: bool) -> None:
    try:
        result = getattr(evokernel, name)(**kwargs)
    except EvoKernelError:
        return
    assert not refused, f"{name} accepted an argument that is never valid"
    for number in _numbers(result):
        number = np.asarray(number)
        if number.dtype.kind in "fc":
            assert np.isfinite(number).all(), f"{name} returned a non-finite result"


def test_every_public_callable_has_a_valid_call_naming_each_parameter():
    records = {
        name
        for name in evokernel.__all__
        if isinstance(getattr(evokernel, name), type)
        and (
            issubclass(getattr(evokernel, name), BaseException)
            or (dataclasses.is_dataclass(getattr(evokernel, name)) and name not in VALID)
        )
    }
    assert sorted(set(evokernel.__all__) - records) == sorted(VALID)
    for name, kwargs in VALID.items():
        parameters = inspect.signature(getattr(evokernel, name)).parameters
        assert list(parameters) == list(kwargs), name


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_calls_return_finite_results(name):
    result = getattr(evokernel, name)(**VALID[name])
    assert all(np.isfinite(np.asarray(x, dtype=float)).all() for x in _numbers(result))


@pytest.mark.parametrize("name, param, field", _substitutions())
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_bad_argument_gives_a_finite_result_or_a_package_error(name, param, field, data):
    kwargs = dict(VALID[name])
    if field is None:
        kwargs[param], refused = data.draw(_kind(kwargs[param]), label=param)
    else:
        config = kwargs[param]
        bad, refused = data.draw(_kind(getattr(config, field)), label=f"{param}.{field}")
        kwargs[param] = dataclasses.replace(config, **{field: bad})
    _call_is_finite_or_package_error(name, kwargs, refused)
