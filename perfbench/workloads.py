"""The three benchmark workloads.

A workload is a corpus recipe plus one request. The corpus is a pure
function of the workload seed and is written to JSONL during set-up; the
request reads only that file, exactly as the `evolal` CLI would, and
returns what the output checks and the end-to-end metrics need.

  cv-ordinal    `evolal evaluate`: temporal CV over five methods on the
                ordering-benchmark emitter (many short sub-trajectories)
  long-horizon  the same harness, `themes` only, on 400-step trajectories,
                8 students to train and 24 to test (regulator, O(T^2)
                causal prediction, ADMM/Viterbi)
  train-sgld    `evolal train --method themes` at library defaults with
                `em_max_iter=2` (SGLD-dominated, no prediction)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from evolal import (EDMConfig, EmitterConfig, EvolalError, MethodConfigs,
                    PartitionConfig, ThemesConfig, TrainConfig,
                    adjusted_rand_index, build_methods, gen_emitter_records,
                    parse_dataset, records_to_dataset, run_temporal_cv,
                    standardize, write_dataset)
from evolal.evaluation import benchmark_configs, build_method, reports_to_csv
from evolal.themes import step_posteriors

CV_METHODS = ("bc", "edm", "em-edm", "themes1", "themes")
FIT_SEED = 0  # the CLI's default --seed; the workload seed only shapes data


@dataclass
class Outcome:
    """What one request produced, for the checks and the metrics."""

    artifact: bytes = b""  # reports CSV or model JSON, compared across runs
    fits: int = 0
    predictions: int = 0
    failed: int = 0  # fits and predictions that raised
    predict_s: float = 0.0
    rows: list = field(default_factory=list)  # predicted distributions
    r_bars: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    fingerprint: str = ""
    error: str = ""

    @property
    def attempted(self) -> int:
        return self.fits + self.predictions


@dataclass(frozen=True)
class Corpus:
    path: Path
    truth: dict  # student id -> (regimes, intents), per step


def model_fingerprint(model) -> np.ndarray:
    """Every fitted parameter of a ThemesModel as one flat vector."""
    parts = [np.concatenate(model.partition.labels).astype(np.float64)]
    for p in model.partition.profiles:
        parts.extend([p.mean.ravel(), p.theta.ravel()])
    parts.append(model.mixture.priors)
    parts.append(model.mixture.responsibilities.ravel())
    for net in model.mixture.policies:
        parts.append(net.get_flat())
    parts.append(model.regulator.r_bar.ravel())
    return np.concatenate(parts)


def _fingerprint_sha(model) -> str:
    vec = np.ascontiguousarray(model_fingerprint(model), dtype="<f8")
    return hashlib.sha256(vec.tobytes()).hexdigest()


def _recovery(model, data, truth) -> dict:
    """ARI of the fitted step labels against the generator's regimes and
    of the argmax step posterior against its intents, pooled over the
    training trajectories."""
    regimes, intents = [], []
    for traj in data.trajectories:
        z, c = truth[traj.traj_id]
        regimes.append(z)
        intents.append(c)
    labels = np.concatenate(model.step_label_seqs)
    posts = np.concatenate([p.argmax(axis=1) for p in step_posteriors(model)])
    return {"regime_ari": adjusted_rand_index(labels,
                                              np.concatenate(regimes)),
            "intent_ari": adjusted_rand_index(posts, np.concatenate(intents))}


def _n_actions(records) -> int:
    """Action count the way the CLI infers it (at least two)."""
    peak = max(int(r.trajectory.actions.max()) for r in records
               if len(r.trajectory))
    return max(peak + 1, 2)


def _instrument(method, out: Outcome, truth):
    """Wrap a method's fit and predict to count, time and keep what the
    checks need; the `themes` fit also yields the recovery metrics."""
    def fit(data, seed):
        out.fits += 1
        try:
            state = method.fit(data, seed)
        except EvolalError:
            out.failed += 1
            raise
        if method.name.startswith("themes"):
            out.r_bars.append(np.array(state.regulator.r_bar))
        if method.name == "themes":
            out.quality.update(_recovery(state, data, truth))
            out.fingerprint = _fingerprint_sha(state)
        return state

    def predict(state, traj, t):
        out.predictions += 1
        t0 = perf_counter()
        try:
            row = method.predict(state, traj, t)
        except EvolalError:
            out.failed += 1
            raise
        out.predict_s += perf_counter() - t0
        out.rows.append(row)
        return row

    return replace(method, fit=fit, predict=predict)


def _evaluate(corpus: Corpus, names, cfgs: MethodConfigs) -> Outcome:
    """`evolal evaluate`: parse, build the methods, temporal CV with the
    expert filter, reports CSV."""
    out = Outcome()
    try:
        records = parse_dataset(corpus.path)
        built = [_instrument(m, out, corpus.truth)
                 for m in build_methods(names, cfgs, _n_actions(records))]
        reports = run_temporal_cv(records, built, seeds=(FIT_SEED,))
    except EvolalError as exc:
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.artifact = reports_to_csv(reports).encode()
    themes = [r for r in reports if r.method == "themes"][0]
    out.quality["accuracy"] = themes.aggregate["accuracy"][0]
    out.quality["macro_auc"] = themes.aggregate["auc"][0]
    return out


def _train(corpus: Corpus, cfgs: MethodConfigs) -> Outcome:
    """`evolal train --method themes`: parse, standardize, fit, and the
    model document the CLI would write."""
    out = Outcome()
    try:
        records = parse_dataset(corpus.path)
        n_actions = _n_actions(records)
        data_std, stats = standardize(records_to_dataset(records))
        method = _instrument(build_method("themes", cfgs, n_actions), out,
                             corpus.truth)
        model = method.fit(data_std, FIT_SEED)
    except EvolalError as exc:
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    doc = {"method": "themes", "seed": FIT_SEED, "n_actions": n_actions,
           "stats": {"mean": stats.mean.tolist(), "std": stats.std.tolist()},
           "model": method.save(model)}
    out.artifact = json.dumps(doc, sort_keys=True).encode()
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    emitter: dict  # EmitterConfig fields besides the seed
    request: object  # Corpus -> Outcome

    def make_corpus(self, seed: int, directory: Path) -> Corpus:
        records, truth = gen_emitter_records(
            EmitterConfig(**self.emitter, seed=seed))
        path = directory / f"{self.name}-{seed}.jsonl"
        write_dataset(path, records)
        return Corpus(path=path, truth={
            r.student_id: (z, c)
            for r, z, c in zip(records, truth.regimes, truth.intents)})


def _long_horizon_configs() -> MethodConfigs:
    edm = EDMConfig(alpha_e=0.0, train=TrainConfig(epochs=10, batch_size=64))
    return MethodConfigs(edm=edm, themes=ThemesConfig(
        partition=PartitionConfig(n_clusters=6), edm=edm))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cv-ordinal",
        emitter=dict(n_students=80, n_steps=20, separation=4.0,
                     intent_p=0.8, intent_weights=(0.55, 0.30, 0.15),
                     semesters=("S1", "S2")),
        request=lambda c: _evaluate(c, CV_METHODS, benchmark_configs())),
    Workload(
        name="long-horizon",
        # 8 students train and 24 test: prediction costs the same on every
        # corpus and the fit does not, so the larger test fold shrinks the
        # spread of wall_s across seeds
        emitter=dict(n_students=32, n_steps=400, m_s=6, switch_prob=0.02,
                     intent_p=0.8, semesters=("S1", "S2", "S2", "S2")),
        request=lambda c: _evaluate(c, ("themes",), _long_horizon_configs())),
    Workload(
        name="train-sgld",
        emitter=dict(n_students=40, n_steps=20),
        request=lambda c: _train(c, MethodConfigs(
            themes=replace(ThemesConfig(), em_max_iter=2)))),
)}
