"""The tomography pipeline: from ad logs to inferred sharing edges.

Stages: per-(advertiser, persona, run) count vectors, each flagged by a
chi-squared test against the run's pooled control -> a seed-drawn split
of the runs into cross-validation and holdout runs (``holdout_mask``) ->
per-advertiser grid-searched random forest -> holdout-gated
mean-plus-sigma information-gain rule.  Precision and recall against the
planted graph are the evaluate stage's (``evaluation.evaluate``).  The
personas, one per blocked-tracker combination, are enumerated by
``ecosim.enumerate_personas``.

Flagging is deliberately conservative: a record whose table cannot support a
valid chi-squared test (too little co-occurring mass after low-expectancy
column collapsing, e.g. because the advertiser won few or no auctions for
that persona) is flagged False.  Not winning auctions is noise, not evidence.

The records of one (advertiser, run) share their pooled control row, so they
are flagged together by ``stattest.flags_against``: one dense block per
batch over the control's support plus the columns some record fills to
``min_expected`` alone.  Every other column is low-mass in every record's
table and goes straight into that record's residual, so each record gets the
flag its own 2 x V table would give.

The ad log is read once into integer columns (``AdLog``).  ``flag_records``
selects one advertiser's ads from them and keys each token occurrence by
(row, corpus column).  A row is a (non-control persona, run) or, for every
control persona alike, the run's pooled control.  The keys are sorted once
and run-length encoded, so each record's vector and each run's pooled
control come from their own slices of the runs.  The flag stage runs it per
advertiser in processes that share the parent's columns, for every
(advertiser, non-control persona, run) the config and ``personas.json``
name, won ads or not.  Inference reads the flags back as one such array
(``Flags``), which keeps no counts.

The forest sees one advertiser's flags as arrays (X, y, personas), built
once for the cross-validation runs and once for the holdout runs.  X is
each persona's blocking row, repeated once per run, and y is each
persona's flags over those runs, sorted: the rows are in (persona, flag)
order.  Features are a function of the persona, so this is also the
(persona, features, label) order, and the report does not depend on the
order of the records.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .forest import (
    ForestParams,
    HyperGrid,
    accuracy,
    best_point,
    cv_scores,
    feature_importance,
    fold_masks,
    kernels,
    train_forest,
)
from .parallel import cpus, fork_map
from .rng import substream, substream_key
from .stattest import StatConfig, TestResult, flags_against, welch_t_test
from .textvec import cosine_similarity


class AdvertiserReport(NamedTuple):
    advertiser: str
    params: ForestParams
    cv_accuracy: float
    holdout_accuracy: float
    gains: dict[str, float]           # tracker id -> normalized information gain
    inferred: tuple[str, ...]         # tracker ids passing the mean + 1 sigma rule


class H1Result(NamedTuple):
    groups: tuple[str, ...]
    means: dict[tuple[str, str], float]
    tests: dict[tuple[str, str], TestResult]   # within-vs-across Welch tests


class AdLog(NamedTuple):
    """``adlog.jsonl`` as integer columns, one entry per ad in file order.
    Persona, advertiser and token ids index the name lists, which are the
    config's, each sorted, whether an ad names them or not."""

    run: np.ndarray          # int32
    persona: np.ndarray      # int32 index into ``personas``
    advertiser: np.ndarray   # int32 index into ``advertisers``
    offsets: np.ndarray      # int64, one more than ads: ad i's tokens are
                             # token[offsets[i]:offsets[i + 1]]
    token: np.ndarray        # int32 index into ``tokens``, per token occurrence
    personas: list[str]
    advertisers: list[str]
    tokens: list[str]


class Flags(NamedTuple):
    """The change flags of ``records.jsonl``: ``flag[a, p, r]`` is the flag
    of advertiser ``advertisers[a]`` for persona ``personas[p]`` in run
    ``r``.  Both name lists are sorted."""

    advertisers: list[str]
    personas: list[str]
    flag: np.ndarray         # uint8, shape (advertisers, personas, runs)


def corpus_columns(log: AdLog) -> tuple[list[str], np.ndarray]:
    """(corpus tokens, column): the tokens the ads of ``log`` hold, in
    corpus column order, and the corpus column of each token id.  The ids
    follow the sorted ``log.tokens``, so the corpus is sorted too."""
    held = np.bincount(log.token, minlength=len(log.tokens)) > 0
    return [log.tokens[i] for i in np.flatnonzero(held).tolist()], np.cumsum(held) - 1


def _ranks(names: Sequence[str], order: Sequence[str]) -> np.ndarray:
    """Position of each name in ``order``."""
    rank = {name: i for i, name in enumerate(order)}
    return np.array([rank[name] for name in names], dtype=np.int64)


def _count_vectors(log: AdLog, ads: np.ndarray, record: np.ndarray, column: np.ndarray,
                   n_records: int) -> list[dict[int, int]]:
    """Per record r < ``n_records``, the column -> count vector of the tokens
    of the ads ``ads[i]`` with ``record[i] == r``.  The (record, column) keys
    are sorted once and run-length encoded; each record's vector is built
    from its own slice of the runs, so its keys come in ascending column
    order."""
    first = log.offsets[ads]
    length = log.offsets[ads + 1] - first
    occurrence = np.repeat(first - (np.cumsum(length) - length), length)
    occurrence += np.arange(occurrence.size)
    key = column[log.token[occurrence]]
    del occurrence
    width = len(column)
    key += np.repeat(record * width, length)
    key.sort()
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, key.size))
    key = key[starts]
    owner = key // width
    columns = key - owner * width
    bounds = np.searchsorted(owner, np.arange(n_records + 1)).tolist()
    empty: dict[int, int] = {}  # shared by every empty record; nothing mutates a record's vector
    return [dict(zip(columns[lo:hi].tolist(), counts[lo:hi].tolist())) if hi > lo else empty
            for lo, hi in zip(bounds, bounds[1:])]


def group_run_vectors(log: AdLog, group_of: Mapping[str, str]
                      ) -> dict[tuple[str, int], dict[int, int]]:
    """Per (group, run) that holds an ad, the token-id -> count vector of its
    ads' tokens, the persona's group given by ``group_of``.  Token ids stand
    in for corpus columns: cosine similarity does not depend on the column
    order."""
    groups = sorted(set(group_of.values()))
    n_runs = int(log.run.max()) + 1
    record = (_ranks([group_of[p] for p in log.personas], groups)[log.persona] * n_runs
              + log.run)
    vectors = _count_vectors(log, np.arange(log.run.size), record,
                             np.arange(len(log.tokens)), len(groups) * n_runs)
    held = np.flatnonzero(np.bincount(record, minlength=len(groups) * n_runs)).tolist()
    return {(groups[r // n_runs], r % n_runs): vectors[r] for r in held}


def flag_records(log: AdLog, advertiser: str, column: np.ndarray, personas: Sequence[str],
                 runs: int, config: StatConfig = StatConfig()
                 ) -> list[tuple[str, int, dict[int, int], bool]]:
    """(persona, run, vector, flag) of ``advertiser``, one of
    ``log.advertisers``, per persona of the sorted non-control ``personas``
    and per run ``0 .. runs - 1``; every other persona of the log is a
    control.  The vector counts the tokens of the advertiser's creatives for
    that (persona, run) over the corpus columns ``column`` (per token id),
    empty, so flagged False, where it won nothing.  Every control persona maps to one pooled row per run, so the
    sort that builds the vectors also sums the controls, and each run's
    vectors are flagged against that row in one ``flags_against`` call:
    flag True when the record's 2 x V table gives ``p < config.alpha``."""
    rank = {p: i for i, p in enumerate(personas)}
    row = np.array([rank.get(p, len(personas)) for p in log.personas], dtype=np.int64)
    ads = np.flatnonzero(log.advertiser == log.advertisers.index(advertiser))
    record = row[log.persona[ads]] * runs + log.run[ads]
    n = len(personas) * runs  # the runs' pooled controls follow the n records
    vectors = _count_vectors(log, ads, record, column, n + runs)
    flags = [flags_against(vectors[n + r], vectors[r:n:runs], config) for r in range(runs)]
    return [(p, r, vectors[i * runs + r], flags[r][i])
            for i, p in enumerate(personas) for r in range(runs)]


def holdout_mask(runs: int, holdout_runs: int, seed: int) -> np.ndarray:
    """Per run, True when it is held out: ``holdout_runs`` runs in one
    seed-derived draw shared by every (advertiser, persona) pair."""
    mask = np.zeros(runs, dtype=bool)
    mask[substream(seed, "segment").permutation(runs)[:holdout_runs]] = True
    return mask


def infer_relationships(gains, holdout_accuracy: float, accuracy_threshold: float,
                        tracker_ids: Sequence[str]) -> tuple[str, ...]:
    """Trackers whose gain strictly exceeds mean + 1 population sigma, gated
    on holdout accuracy.

    Strict inequality means a uniform gain vector (sigma 0) infers nothing,
    and any model below the accuracy threshold infers nothing.
    """
    if not 0.0 < accuracy_threshold <= 1.0:
        raise ConfigError(f"accuracy_threshold must be in (0, 1], got {accuracy_threshold}")
    gains = np.asarray(gains, dtype=float)
    if len(gains) != len(tracker_ids):
        raise ConfigError(f"{len(gains)} gains for {len(tracker_ids)} trackers")
    if holdout_accuracy < accuracy_threshold:
        return ()
    cutoff = float(gains.mean()) + float(gains.std(ddof=0))
    return tuple(t for t, g in zip(tracker_ids, gains) if g > cutoff)


# Trees x patterns of one cross-validation task: units are packed into a
# task up to this size.  A task's memory grows with it: on 2 vCPU,
# perfbench small-run peak RSS read 41.8 MB with one unit per task, 42.1 MB
# at 2^15 and 2^16, and 47.4 MB at 2^17, where the pool workers outgrow
# the process that forks them.
_PACK_BUDGET = 1 << 16


def run_inference(flags: Flags, holdout: np.ndarray, grid: HyperGrid, folds: int,
                  seed: int, trackers: Sequence[str],
                  blocking_by_persona: Mapping[str, Iterable[str]],
                  accuracy_threshold: float = 0.6) -> list[AdvertiserReport]:
    """Fit one model per advertiser of ``flags`` and apply the inference
    rule.  The model trains on the runs outside the per-run mask ``holdout``
    (``holdout_mask``) and is scored on the runs inside it.

    Each advertiser's choice is a persona-balanced k-fold grid search, the
    best grid point by ``best_point``, followed by ``train_forest`` on the
    chosen params, both on the advertiser's seed.  Every advertiser appears
    in the output with its accuracies even when the holdout gate empties
    its inferred set.

    Every advertiser's cross-validation rows share the personas' blocking
    rows, so the pattern table and each row's (pattern, label) cell are
    computed once for all of them.  A unit, one (advertiser, grid point)
    with all its fold forests, is scored by ``cv_scores``.  Units that share
    (``max_depth``, ``features_per_split``, ``min_leaf``) are packed, in
    (advertiser, grid point) order, into one task up to ``_PACK_BUDGET``
    trees x patterns and at most an even share of the work per CPU; a unit
    over that is a task alone.  A unit's
    folds never split across tasks: sqrt trees take one node per round, and
    the fold lockstep is what amortises the rounds.  The tasks run in one
    process pool; the per-advertiser final fits then run in this process,
    one after another.  A second pool for the fits costs more to start than
    it saves: on 2 vCPU, ``mini`` infer takes 15-21 ms without it and 23 ms
    with it, and full ``desk`` infer 90.3 s against 90.7 s.  Each unit and
    fit draws from its own substreams, so the report depends neither on the
    packing nor on the worker count.
    """
    trackers = tuple(sorted(trackers))
    blocked = [set(blocking_by_persona[p]) for p in flags.personas]
    blocks = np.array([[t in b for t in trackers] for b in blocked], dtype=np.uint8)
    cv_runs = int((~holdout).sum())

    def design(a: int, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) of advertiser ``a`` over the runs the mask ``runs`` holds,
        rows sorted by (persona, flag)."""
        y = np.sort(flags.flag[a][:, runs], axis=1)
        return np.repeat(blocks, y.shape[1], axis=0), y.ravel()

    # Per advertiser, the (pattern, label) cells of the rows ``design``
    # builds over the cross-validation runs: each persona's label-0 cell
    # repeated per run, plus its flags, sorted.
    patterns, persona_cell = kernels.pattern_cells(blocks, 0)
    cells = np.repeat(persona_cell, cv_runs) + np.sort(
        flags.flag[:, :, ~holdout], axis=2).reshape(len(flags.advertisers), -1)
    personas = [p for p in flags.personas for _ in range(cv_runs)]
    seeds = [substream_key(seed, "infer", advertiser) for advertiser in flags.advertisers]
    test = np.stack([fold_masks(personas, folds, adv_seed) for adv_seed in seeds])

    points = grid.points()
    units = [(a, gi) for a in range(len(seeds)) for gi in range(len(points))]
    sizes = [folds * params.n_trees * len(patterns) for params in points]
    # No task takes more than an even share of the work per CPU, so a small
    # input still spreads over every worker.
    budget = min(_PACK_BUDGET, len(seeds) * sum(sizes) / cpus())
    tasks: list[list[int]] = []
    packing: dict[tuple, tuple[list[int], int]] = {}  # group -> (open task, its size)
    for u, (a, gi) in enumerate(units):
        params = points[gi]
        group = (params.max_depth, params.features_per_split, params.min_leaf)
        task, used = packing.get(group, ([], 0))
        if task and used + sizes[gi] > budget:
            tasks.append(task)
            task, used = [], 0
        packing[group] = (task + [u], used + sizes[gi])
    tasks += [task for task, _ in packing.values()]

    def score(task: list[int]) -> list[float]:
        return cv_scores(patterns, cells, test,
                         [(a, points[gi], gi, seeds[a]) for a, gi in map(units.__getitem__, task)])

    scores = [0.0] * len(units)
    for task, got in zip(tasks, fork_map(score, tasks)):
        for u, acc in zip(task, got):
            scores[u] = acc
    chosen = [best_point(points, scores[a * len(points):(a + 1) * len(points)])
              for a in range(len(seeds))]

    reports = []
    for a, (advertiser, (params, cv_acc)) in enumerate(zip(flags.advertisers, chosen)):
        model = train_forest(*design(a, ~holdout), params, seeds[a])
        holdout_acc, gains = accuracy(model, *design(a, holdout)), feature_importance(model)
        inferred = infer_relationships(gains, holdout_acc, accuracy_threshold, trackers)
        reports.append(AdvertiserReport(
            advertiser=advertiser, params=params, cv_accuracy=cv_acc,
            holdout_accuracy=holdout_acc,
            gains={t: float(g) for t, g in zip(trackers, gains)},
            inferred=inferred))
    return reports


def h1_similarity_matrix(vectors: Mapping[tuple[str, int], Mapping[int, int]],
                         where: str | None = None) -> H1Result:
    """Interest-dependence analysis over per-(group, run) document vectors.

    For each group pair the mean of the cosine-similarity distribution is
    reported (within-group distributions exclude self-pairs); each
    within-vs-across pair is Welch-tested two-sided.  A group needs at least
    three runs to carry two within-group pairs, the Welch minimum, so pairs
    involving a two-run group report a mean but no test.  A group with
    fewer than two runs raises ConfigError naming ``where``, the file the
    vectors were read from.
    """
    groups = tuple(sorted({g for g, _ in vectors}))
    runs_by_group = {g: sorted(r for gg, r in vectors if gg == g) for g in groups}
    for g, runs in runs_by_group.items():
        if len(runs) < 2:
            raise ConfigError(f"group {g!r} has fewer than 2 runs", where)

    def dist(g1: str, g2: str) -> list[float]:
        if g1 == g2:
            runs = runs_by_group[g1]
            return [cosine_similarity(vectors[(g1, r)], vectors[(g1, s)])
                    for i, r in enumerate(runs) for s in runs[i + 1:]]
        return [cosine_similarity(vectors[(g1, r)], vectors[(g2, s)])
                for r in runs_by_group[g1] for s in runs_by_group[g2]]

    means: dict[tuple[str, str], float] = {}
    tests: dict[tuple[str, str], TestResult] = {}
    dists = {(g1, g2): dist(g1, g2) for g1 in groups for g2 in groups}
    for g1 in groups:
        for g2 in groups:
            means[(g1, g2)] = float(np.mean(dists[(g1, g2)]))
            if g1 != g2 and len(dists[(g1, g1)]) >= 2 and len(dists[(g1, g2)]) >= 2:
                tests[(g1, g2)] = welch_t_test(dists[(g1, g1)], dists[(g1, g2)])
    return H1Result(groups=groups, means=means, tests=tests)
