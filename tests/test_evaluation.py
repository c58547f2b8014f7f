import functools
import math
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phraselab import evaluation as ev
from phraselab.errors import (
    ConfigError,
    EmptySplit,
    LengthMismatch,
    ShapeMismatch,
    TooFewRecords,
    ZeroVariance,
)
from phraselab.evaluation import (
    FoldOutcome,
    FoldPlan,
    cross_validate,
    cv_estimate_from_losses,
    evaluate_baseline_cv,
    pearson,
    pearson_if_defined,
    stratified_kfold,
)
from phraselab.lexical import levenshtein_similarity

from conftest import make_dataset


def scored_dataset(scores, prefix="r"):
    return make_dataset(
        [(f"{prefix}{i}", f"word{i}", f"term{i}", "c", s) for i, s in enumerate(scores)]
    )


# ----------------------------------------------------------------- pearson

def test_pearson_known_values():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12


def test_pearson_undefined_inputs():
    with pytest.raises(ZeroVariance):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVariance):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(LengthMismatch):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        pearson([1.0], [2.0])


def test_pearson_if_defined_returns_the_value_or_the_reason():
    assert pearson_if_defined([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == (1.0, None)
    value, reason = pearson_if_defined([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert value is None and "constant" in reason
    value, reason = pearson_if_defined([1.0], [2.0])
    assert value is None and "at least 2" in reason


def reference_pearson(y, z) -> float:
    """Pearson correlation of the float inputs as given, to 60 digits.

    Means, centred sums and products are exact fractions; only the
    final square root and division round.
    """
    fy = [Fraction(float(v)) for v in y]
    fz = [Fraction(float(v)) for v in z]
    my, mz = sum(fy) / len(fy), sum(fz) / len(fz)
    cov = sum((p - my) * (q - mz) for p, q in zip(fy, fz))
    var_y = sum((p - my) ** 2 for p in fy)
    var_z = sum((q - mz) ** 2 for q in fz)
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(q: Fraction) -> Decimal:
            return Decimal(q.numerator) / Decimal(q.denominator)

        return float(dec(cov) / (dec(var_y) * dec(var_z)).sqrt())


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=24),
    st.integers(0, 2**31 - 1),
    st.floats(0.1, 8.0),
    st.floats(-10.0, 10.0),
)
@example(ys=[0.0, 1e-05, 5.960464477539063e-08], seed=0, a=0.1, b=1.0)
def test_pearson_affine_invariance(ys, seed, a, b):
    """In exact arithmetic pearson(a*y + b, z) = pearson(y, z). In
    floats ``a * y + b`` rounds each value by up to half an ulp of the
    result, which on a 1e-6 spread moves the correlation of the stored
    column itself by ~1e-11. So every call is held to a reference over
    its own float inputs, and the two calls to each other only where
    the transform is exact."""
    ya = np.asarray(ys)
    if np.max(ya) - np.min(ya) < 1e-6:
        return  # degenerate spread: correlation undefined or underflowing
    rng = np.random.default_rng(seed)
    yhat = rng.normal(0, 1, len(ys))
    base = pearson(ys, yhat)
    assert abs(base - reference_pearson(ya, yhat)) < 1e-12
    for slope in (a, -a):
        moved = slope * ya + b
        got = pearson(moved, yhat)
        assert abs(got - reference_pearson(moved, yhat)) < 1e-12
        exact = all(
            Fraction(m) == Fraction(slope) * Fraction(y) + Fraction(b) for m, y in zip(moved, ys)
        )
        if exact:
            assert abs(got - (base if slope > 0 else -base)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 40))
def test_pearson_bounded(seed, n):
    rng = np.random.default_rng(seed)
    y = rng.normal(0, 1, n)
    z = rng.normal(0, 1, n)
    if np.all(y == y[0]) or np.all(z == z[0]):
        return
    assert abs(pearson(y, z)) <= 1.0 + 1e-12


def test_pearson_stable_under_large_offset():
    rng = np.random.default_rng(3)
    y = rng.random(50)
    z = rng.random(50)
    base = pearson(y, z)
    assert abs(pearson(y + 1e6, z) - base) < 1e-7


# ------------------------------------------------------------ fold planning

def test_kfold_validation_errors():
    d = scored_dataset([0.1, 0.5, 0.9])
    with pytest.raises(ConfigError):
        stratified_kfold(d, k=1)
    with pytest.raises(ConfigError):
        stratified_kfold(d, k=2, n_bins=0)
    with pytest.raises(TooFewRecords):
        stratified_kfold(d, k=4)


def test_kfold_eight_records_two_bins():
    d = scored_dataset([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9])
    plan = stratified_kfold(d, k=2, n_bins=2, seed=0)
    assert sorted(plan.assignment) == [0, 0, 0, 0, 1, 1, 1, 1]
    low = [plan.assignment[i] for i in range(4)]
    high = [plan.assignment[i] for i in range(4, 8)]
    assert sorted(Counter(low).values()) == [2, 2]
    assert sorted(Counter(high).values()) == [2, 2]


def test_kfold_uneven_sizes_within_one():
    d = scored_dataset([i / 10 for i in range(10)])
    plan = stratified_kfold(d, k=3, n_bins=1, seed=1)
    sizes = sorted(Counter(plan.assignment).values())
    assert sizes == [3, 3, 4]


def test_kfold_partition_and_stratification_large():
    rng = np.random.default_rng(9)
    scores = rng.random(1000).tolist()
    d = scored_dataset(scores)
    k, n_bins = 5, 4
    plan = stratified_kfold(d, k=k, n_bins=n_bins, seed=7)

    assert len(plan.assignment) == 1000
    assert set(plan.assignment) == set(range(k))
    sizes = Counter(plan.assignment).values()
    assert max(sizes) - min(sizes) <= 1

    for b in range(n_bins):
        members = [
            i for i, s in enumerate(scores)
            if min(int(s * n_bins), n_bins - 1) == b
        ]
        per_fold = Counter(plan.assignment[i] for i in members)
        counts = [per_fold.get(f, 0) for f in range(k)]
        assert max(counts) - min(counts) <= 1, (b, counts)


def test_kfold_deterministic_and_seed_sensitive():
    d = scored_dataset(np.random.default_rng(0).random(60).tolist())
    a = stratified_kfold(d, k=4, n_bins=3, seed=5)
    b = stratified_kfold(d, k=4, n_bins=3, seed=5)
    c = stratified_kfold(d, k=4, n_bins=3, seed=6)
    assert a == b
    assert a.assignment != c.assignment


def test_fold_plan_index_helpers():
    plan = FoldPlan(k=2, assignment=(0, 1, 0, 1), seed=0, bin_edges=(0.0, 1.0))
    assert plan.val_indices(0) == [0, 2]
    assert plan.train_indices(0) == [1, 3]
    assert plan.val_indices(1) == [1, 3]
    with pytest.raises(ConfigError):
        plan.val_indices(2)
    with pytest.raises(ConfigError):
        plan.train_indices(-1)


def test_kfold_bin_edges_cover_unit_interval():
    d = scored_dataset([0.0, 0.25, 0.5, 0.75, 1.0])
    plan = stratified_kfold(d, k=2, n_bins=4, seed=0)
    assert plan.bin_edges == (0.0, 0.25, 0.5, 0.75, 1.0)
    # score exactly 1.0 lands in the last bin, not out of range
    assert len(plan.assignment) == 5


@settings(max_examples=60, deadline=None)
@given(
    st.integers(6, 120),
    st.integers(2, 6),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_kfold_properties_random(n, k, n_bins, seed):
    if n < k:
        return
    rng = np.random.default_rng(seed)
    scores = rng.random(n).tolist()
    plan = stratified_kfold(scored_dataset(scores), k=k, n_bins=n_bins, seed=seed)
    assert len(plan.assignment) == n
    assert all(0 <= f < k for f in plan.assignment)
    sizes = Counter(plan.assignment).values()
    assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------- cv aggregation

def test_cv_estimate_equal_folds_fixture_is_exact():
    assert cv_estimate_from_losses([0.2, 0.2, 0.2, 0.4, 0.4, 0.4]) == 0.3


def test_cv_estimate_rejects_empty():
    with pytest.raises(ConfigError):
        cv_estimate_from_losses([])


@dataclass(frozen=True)
class StubConfig:
    seed: int = 40


# Fold trainers are module-level functions: cross_validate sends them to
# its worker processes by name.

def oracle(data, train_idx, val_idx, _cfg):
    return FoldOutcome(
        predictions=[data.records[i].score for i in val_idx], train_loss=0.0
    )


def constant(_data, _train_idx, val_idx, _cfg):
    return FoldOutcome(predictions=[0.5] * len(val_idx), train_loss=0.0)


def seed_spy(data, train_idx, val_idx, cfg):
    """The oracle, reporting the seed and the process it ran with."""
    return FoldOutcome(
        predictions=[data.records[i].score for i in val_idx],
        train_loss=0.0,
        extras={"seed": cfg.seed, "pid": os.getpid()},
    )


def pid_spy(data, train_idx, val_idx, _cfg):
    """The oracle, reporting the process it ran in."""
    return FoldOutcome(
        predictions=[data.records[i].score for i in val_idx],
        train_loss=0.0,
        extras={"pid": os.getpid()},
    )


def broken(_data, _train_idx, _val_idx, _cfg):
    raise ZeroVariance("synthetic failure")


def overcounting(_data, _train_idx, val_idx, _cfg):
    return FoldOutcome(predictions=[0.5] * (len(val_idx) + 1), train_loss=0.0)


def blas_threads(data, train_idx, val_idx, _cfg):
    """The oracle, reporting its process, its OpenBLAS thread count and,
    after a product large enough for OpenBLAS to start its threads, the
    OS threads it runs (None without /proc)."""
    threads = ev._blas_thread_functions()[1]()
    square = np.ones((400, 400))
    square @ square
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    return FoldOutcome(
        predictions=[data.records[i].score for i in val_idx],
        train_loss=0.0,
        extras={"threads": threads, "tasks": tasks, "pid": os.getpid()},
    )


# set to a fork-context Barrier(k) by the test that uses it; forked
# workers inherit it
FOLDS_STARTED = None


def baseline_once_all_started(data, train_idx, val_idx, cfg):
    """The lexical baseline's fold with its pid, returned only once every
    fold of the call has started (at once with FOLDS_STARTED set)."""
    if FOLDS_STARTED is not None:
        FOLDS_STARTED.wait(timeout=30)
    outcome = ev._baseline_fold(data, train_idx, val_idx, cfg)
    return FoldOutcome(outcome.predictions, outcome.train_loss, extras={"pid": os.getpid()})


def test_cross_validate_with_oracle_predictor():
    scores = [0.1, 0.3, 0.5, 0.7, 0.2, 0.8, 0.4, 0.6]
    d = scored_dataset(scores)
    plan = stratified_kfold(d, k=2, n_bins=1, seed=0)

    report = cross_validate(d, plan, StubConfig(), train_fn=oracle)
    assert report.cv_estimate == 0.0
    assert report.mean_pearson == 1.0
    for fm in report.folds:
        assert fm.validation_loss == 0.0
        assert fm.pearson == 1.0
        assert fm.pearson_error is None
        assert fm.n_val == 4


def test_cross_validate_with_constant_predictor():
    scores = [0.0, 0.25, 0.5, 0.75, 1.0, 0.1]
    d = scored_dataset(scores)
    plan = stratified_kfold(d, k=2, n_bins=1, seed=3)

    report = cross_validate(d, plan, StubConfig(), train_fn=constant)
    assert report.mean_pearson is None
    want = cv_estimate_from_losses([(s - 0.5) ** 2 for s in scores])
    assert abs(report.cv_estimate - want) < 1e-15
    for fm in report.folds:
        assert fm.pearson is None
        assert "constant" in fm.pearson_error


def test_cross_validate_reseeds_each_fold():
    d = scored_dataset([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
    plan = stratified_kfold(d, k=3, n_bins=1, seed=0)

    report = cross_validate(d, plan, StubConfig(seed=40), train_fn=seed_spy)
    seen = [outcome.extras["seed"] for outcome in report.outcomes]
    assert seen == [40 ^ 0, 40 ^ 1, 40 ^ 2]


def test_cross_validate_single_record_folds_have_undefined_pearson():
    d = scored_dataset([0.2, 0.4, 0.6])
    plan = stratified_kfold(d, k=3, n_bins=1, seed=0)

    report = cross_validate(d, plan, StubConfig(), train_fn=oracle)
    assert report.mean_pearson is None
    assert all(fm.pearson is None for fm in report.folds)
    assert report.cv_estimate == 0.0


# the two plan checks below hand over a lambda, which no worker process
# could receive: they pass only if the checks run before any fold starts

def test_cross_validate_rejects_mismatched_plan():
    d = scored_dataset([0.1, 0.5, 0.9])
    plan = FoldPlan(k=2, assignment=(0, 1), seed=0, bin_edges=(0.0, 1.0))
    with pytest.raises(ShapeMismatch):
        cross_validate(d, plan, StubConfig(), train_fn=lambda *a: None)


def test_cross_validate_rejects_empty_fold_side():
    d = scored_dataset([0.1, 0.5, 0.9])
    plan = FoldPlan(k=2, assignment=(1, 1, 1), seed=0, bin_edges=(0.0, 1.0))
    with pytest.raises(EmptySplit):
        cross_validate(d, plan, StubConfig(), train_fn=lambda *a: None)


def test_cross_validate_refuses_a_trainer_workers_cannot_import():
    d = scored_dataset([0.1, 0.5, 0.9, 0.3])
    plan = stratified_kfold(d, k=2, n_bins=1, seed=0)

    def local(data, train_idx, val_idx, cfg):
        return oracle(data, train_idx, val_idx, cfg)

    with pytest.raises(ConfigError, match="module-level"):
        cross_validate(d, plan, StubConfig(), train_fn=local)
    assert multiprocessing.active_children() == []


def test_cross_validate_annotates_fold_errors():
    d = scored_dataset([0.1, 0.5, 0.9, 0.3])
    plan = stratified_kfold(d, k=2, n_bins=1, seed=0)

    with pytest.raises(ZeroVariance, match=r"fold 0: synthetic failure"):
        cross_validate(d, plan, StubConfig(), train_fn=broken)
    assert multiprocessing.active_children() == []


def test_cross_validate_rejects_wrong_prediction_count():
    d = scored_dataset([0.1, 0.5, 0.9, 0.3])
    plan = stratified_kfold(d, k=2, n_bins=1, seed=0)

    with pytest.raises(ShapeMismatch, match="fold 0"):
        cross_validate(d, plan, StubConfig(), train_fn=overcounting)
    assert multiprocessing.active_children() == []


# ------------------------------------------------------------ fold workers

def test_folds_train_in_worker_processes_and_come_back_in_fold_order(monkeypatch):
    monkeypatch.setattr(ev, "_fold_workers", lambda k: 2)
    d = scored_dataset([0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4])
    plan = stratified_kfold(d, k=3, n_bins=1, seed=0)

    report = cross_validate(d, plan, StubConfig(seed=40), train_fn=seed_spy)
    assert [outcome.extras["seed"] for outcome in report.outcomes] == [40, 41, 42]
    assert [fm.fold for fm in report.folds] == [0, 1, 2]
    pids = {outcome.extras["pid"] for outcome in report.outcomes}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert multiprocessing.active_children() == []


def test_without_a_blas_thread_setter_folds_train_in_this_process(monkeypatch):
    real = ev._openblas_function
    # no setter, then a setter but no getter to restore the count with
    for missing in (ev._OPENBLAS_SETTERS, ev._OPENBLAS_GETTERS):
        monkeypatch.setattr(
            ev, "_openblas_function", lambda names: None if names == missing else real(names)
        )
        assert ev._fold_workers(3) == 1
    d = scored_dataset([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
    plan = stratified_kfold(d, k=3, n_bins=1, seed=0)

    report = cross_validate(d, plan, StubConfig(), train_fn=seed_spy)
    assert [outcome.extras["pid"] for outcome in report.outcomes] == [os.getpid()] * 3


def test_loaded_libraries_are_read_once_per_process(monkeypatch):
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(ev, "open", counting_open, raising=False)
    ev._openblas_paths.cache_clear()
    # what one crossval asks before forking, twice over
    for _ in range(2):
        ev._fold_workers(3)
        with ev._one_blas_thread():
            pass
    assert opened == ["/proc/self/maps"]


def test_worker_count_table_over_faked_cpu_counts(monkeypatch):
    if ev._blas_thread_functions() is None:
        pytest.skip("NumPy's BLAS exports no OpenBLAS thread setter and getter")
    # no divisor of 5, 7 or 61 lies below twice the CPUs, so those keep
    # one worker per CPU rather than forking one per fold
    table = {
        (2, 2): 2, (3, 2): 3, (5, 2): 2, (7, 2): 2, (61, 2): 2, (9, 2): 3,
        (64, 2): 2, (10, 4): 5, (4, 8): 4, (3, 1): 1,
    }
    for (k, cpus), workers in table.items():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert ev._fold_workers(k) == workers, (k, cpus)


def test_three_folds_on_two_cpus_train_at_once_in_three_workers(monkeypatch):
    if ev._blas_thread_functions() is None:
        pytest.skip("NumPy's BLAS exports no OpenBLAS thread setter and getter")
    d = scored_dataset([0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5])
    plan = stratified_kfold(d, k=3, n_bins=1, seed=0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # every fold waits for the other two: this fails unless all three overlap
    monkeypatch.setitem(
        globals(), "FOLDS_STARTED", multiprocessing.get_context("fork").Barrier(3)
    )
    report = cross_validate(d, plan, StubConfig(), train_fn=baseline_once_all_started)
    pids = [outcome.extras["pid"] for outcome in report.outcomes]
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert multiprocessing.active_children() == []

    monkeypatch.setitem(globals(), "FOLDS_STARTED", None)
    monkeypatch.setattr(ev, "_fold_workers", lambda k: 1)
    serial = cross_validate(d, plan, StubConfig(), train_fn=baseline_once_all_started)
    assert serial.folds == report.folds
    assert (serial.cv_estimate, serial.mean_pearson) == (report.cv_estimate, report.mean_pearson)
    assert [(o.predictions, o.train_loss) for o in serial.outcomes] == [
        (o.predictions, o.train_loss) for o in report.outcomes
    ]


def test_each_worker_runs_one_blas_thread(monkeypatch):
    functions = ev._blas_thread_functions()
    if functions is None:
        pytest.skip("NumPy's BLAS exports no OpenBLAS thread setter and getter")
    setter, getter = functions
    before = getter()
    # two threads here, so a worker forked at this process's count would
    # show it
    setter(2)
    try:
        if getter() != 2:
            pytest.skip("this OpenBLAS cannot run two threads")
        monkeypatch.setattr(ev, "_fold_workers", lambda k: 2)
        d = scored_dataset([0.1, 0.9, 0.2, 0.8])
        plan = stratified_kfold(d, k=2, n_bins=1, seed=0)
        report = cross_validate(d, plan, StubConfig(), train_fn=blas_threads)
        assert [outcome.extras["threads"] for outcome in report.outcomes] == [1, 1]
        assert os.getpid() not in {outcome.extras["pid"] for outcome in report.outcomes}
        assert getter() == 2
        # the count stays at one while the workers run, and is back once
        # they have all exited
        call = functools.partial(blas_threads, d, [0, 1], [2, 3], StubConfig())
        with ev._started([call, call], 2) as results:
            assert getter() == 1
            assert [result().extras["threads"] for result in results] == [1, 1]
        assert getter() == 2
        tasks = [outcome.extras["tasks"] for outcome in report.outcomes]
        if tasks == [None, None]:
            pytest.skip("no /proc/self/task to count a worker's OS threads in")
        assert tasks == [1, 1]
    finally:
        setter(before)


def test_the_blas_count_comes_back_only_after_every_worker_has_exited(monkeypatch):
    # raising the count starts OpenBLAS threads in this process, which
    # would compete with the workers for the CPUs
    counts = [3]
    live_at_restore = []

    def set_threads(n):
        if n == 3:
            live_at_restore.append(len(multiprocessing.active_children()))
        counts.append(n)

    monkeypatch.setattr(ev, "_blas_thread_functions", lambda: (set_threads, lambda: counts[-1]))
    d = scored_dataset([0.1, 0.9, 0.2, 0.8])
    call = functools.partial(ev._baseline_fold, d, [0, 1], [2, 3], None)
    with ev._started([call, call], 2) as results:
        assert counts[-1] == 1
        assert [len(result().predictions) for result in results] == [2, 2]
    assert counts[-1] == 3
    assert live_at_restore == [0]


# ------------------------------------------------------------ baseline folds

def test_baseline_folds_train_in_this_process(monkeypatch):
    monkeypatch.setattr(ev, "_fold_workers", lambda k: 2)
    monkeypatch.setattr(ev, "_baseline_fold", pid_spy)
    d = scored_dataset([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
    plan = stratified_kfold(d, k=3, n_bins=1, seed=0)

    report = evaluate_baseline_cv(d, plan)
    assert [outcome.extras["pid"] for outcome in report.outcomes] == [os.getpid()] * 3


def test_baseline_cv_matches_whole_dataset_mse():
    """The baseline never trains, so held-out aggregation must equal the
    plain dataset-wide MSE of the lexical similarity."""
    rows = [
        ("a", "gear pump", "gear pumps", "c", 0.9),
        ("b", "valve", "vapor", "c", 0.3),
        ("c", "rotor shaft", "rotor", "c", 0.6),
        ("d", "brake", "brake", "c", 1.0),
        ("e", "filter", "fillet", "c", 0.5),
        ("f", "seal ring", "ring seal", "c", 0.7),
    ]
    d = make_dataset(rows)
    plan = stratified_kfold(d, k=3, n_bins=2, seed=11)
    report = evaluate_baseline_cv(d, plan)
    want = cv_estimate_from_losses(
        [
            (levenshtein_similarity(a.lower(), t.lower()) - s) ** 2
            for _, a, t, _, s in rows
        ]
    )
    assert abs(report.cv_estimate - want) < 1e-15


def test_baseline_cv_identical_fold_contents_give_identical_metrics():
    rows = [
        ("a0", "gear pump", "gear pumps", "c", 0.8),
        ("b0", "valve seat", "brake pad", "c", 0.2),
        ("a1", "gear pump", "gear pumps", "c", 0.8),
        ("b1", "valve seat", "brake pad", "c", 0.2),
    ]
    d = make_dataset(rows)
    plan = FoldPlan(k=2, assignment=(0, 0, 1, 1), seed=0, bin_edges=(0.0, 1.0))
    report = evaluate_baseline_cv(d, plan)
    f0, f1 = report.folds
    assert f0.validation_loss == f1.validation_loss
    assert f0.train_loss == f1.train_loss
    assert f0.pearson == f1.pearson


def test_baseline_cv_is_case_insensitive():
    rows_lower = [
        ("a", "gear pump", "gear pumps", "c", 0.9),
        ("b", "valve", "vapor", "c", 0.3),
        ("c", "rotor", "motor", "c", 0.6),
        ("d", "brake pad", "brake pads", "c", 0.8),
    ]
    rows_upper = [(i, a.upper(), t.upper(), c, s) for i, a, t, c, s in rows_lower]
    plan = stratified_kfold(make_dataset(rows_lower), k=2, n_bins=1, seed=2)
    lo = evaluate_baseline_cv(make_dataset(rows_lower), plan)
    hi = evaluate_baseline_cv(make_dataset(rows_upper), plan)
    assert lo.cv_estimate == hi.cv_estimate
