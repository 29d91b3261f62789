"""The three workloads: their inputs, their set-up and one timed round.

A round is the session a user runs with the CLI on one configuration:
train, measure the shift gap under ``base`` and ``fft`` augmentation, train
the linear probe and attack it with FGSM, then run the ``k-trend`` bound lab.
Every workload runs every step, so every end-to-end metric exists on every
workload; the workloads differ in model, update rule and sizes, which moves
the share of time each layer takes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import checks
from sharpshift import cli, training
from sharpshift.config import TrainConfig
from sharpshift.errors import SharpshiftError

FGSM_EPSILON = 8.0 / 255.0
SETUP_REPEATS = 5
STEP_KEYS = ("train", "base", "fft", "worlds")

# Rounds are kept near 3 s so that every step runs about ten times in a run,
# spread over the whole run: the machine's speed drifts by 10-20% over
# seconds, and interleaving keeps one slow stretch from landing on one step.
MLP = TrainConfig(sam_enabled=True, fft_enabled=True, epochs=3)
CONV = TrainConfig(
    image_size=32, channels=3, n_per_class=64, batch_size=32, epochs=3,
    encoder_architecture="small_conv", encoder_hidden=(8, 16, 32),
)


@dataclass(frozen=True)
class Workload:
    name: str
    train: TrainConfig
    base_n_mc: int
    fft_n_mc: int
    worlds: int


WORKLOADS = {
    w.name: w for w in (
        # The paper's method: SAM ascent/descent plus FFT amplitude mixing, MLP.
        Workload("train_ssa_mlp", MLP, base_n_mc=32, fft_n_mc=3, worlds=200),
        # Plain SGD on the conv net: neither fourier nor the SAM ascent runs
        # in training, conv forward/backward and view generation dominate.
        Workload("train_sgd_conv", CONV, base_n_mc=12, fft_n_mc=1, worlds=200),
        # Forward-only read path: shift gap with 64-image base batches and
        # 9-image fft batches on a 20-image held-out split, then the bound lab.
        Workload("measure_conv", replace(CONV, epochs=2, n_eval_per_class=10),
                 base_n_mc=64, fft_n_mc=8, worlds=300),
    )
}


def tiny(workload):
    """The same workload at a size that runs in about a second."""
    train = replace(workload.train, n_per_class=6, n_eval_per_class=3, batch_size=4,
                    epochs=1, probe_epochs=5)
    return replace(workload, train=train, base_n_mc=2, fft_n_mc=1, worlds=3)


class Session:
    """Set-up, timed rounds and checks of one workload for one seed."""

    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.config = replace(workload.train, seed=seed, probe_seed=seed,
                              output_dir=os.path.join(out_dir, "train"))
        self.timings = {key: [] for key in STEP_KEYS}  # (work, seconds) per round
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.results = []
        self.last = {}  # artifacts of the last round whose steps all succeeded

    # ----- set-up ---------------------------------------------------------------

    def setup(self):
        """Generate the inputs and train the reference checkpoint; returns seconds."""
        t0 = time.perf_counter()
        self.eval_data = training.load_eval_data(self.config)
        self.n_train = len(training.load_train_data(self.config)[1])
        path = training.train_ssl(replace(self.config,
                                          output_dir=os.path.join(self.out_dir, "setup")))
        with open(path, "rb") as fh:
            reference = fh.read()
        elapsed = time.perf_counter() - t0
        if self.reference not in (None, reference):
            self.results.append(("setup_deterministic", False, "set-up checkpoints differ"))
        self.reference = reference
        return elapsed

    # ----- one round ------------------------------------------------------------

    def run_round(self):
        """Attempt every step once; a failed step also fails the steps after it."""
        steps = (self._train, self._shift_base, self._shift_fft, self._probe, self._k_trend)
        self.attempted += len(steps)
        art = {}
        for done, step in enumerate(steps):
            try:
                step(art)
            except SharpshiftError as exc:
                self.failed += len(steps) - done
                print(f"{step.__name__.lstrip('_')} failed: {exc}", file=sys.stderr)
                return
        if art["checkpoint"] != self.reference:
            self.results.append(("checkpoint_bytes", False,
                                 "a round's checkpoint differs from the set-up checkpoint"))
        self.last = art

    def _timed(self, key, work, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.timings[key].append((work, time.perf_counter() - t0))
        return out

    def _train(self, art):
        cfg = self.config
        path = self._timed("train", cfg.epochs * self.n_train, training.train_ssl, cfg)
        with open(path, "rb") as fh:
            art["checkpoint"] = fh.read()
        art["encoder"], art["params"], _ = training.load_run(path)

    def _shift(self, art, mode, n_mc):
        art[mode] = self._timed(
            mode, len(self.eval_data[1]) * n_mc, training.shift_gap_report,
            self.config, art["encoder"], art["params"], mode,
            n_mc=n_mc, seed=self.seed, eval_data=self.eval_data,
        ).aggregate

    def _shift_base(self, art):
        self._shift(art, "base", self.workload.base_n_mc)

    def _shift_fft(self, art):
        self._shift(art, "fft", self.workload.fft_n_mc)

    def _probe(self, art):
        art["model"], _ = training.evaluate_probe(
            self.config, art["encoder"], art["params"], epsilon=FGSM_EPSILON,
            eval_data=self.eval_data,
        )

    def _k_trend(self, art):
        argv = ["bound-lab", "--suite", "k-trend", "--n-worlds", str(self.workload.worlds),
                "--seed", str(self.seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._timed("worlds", self.workload.worlds, cli.main, argv)
        art["k_trend"] = (code, out.getvalue())

    # ----- checks ---------------------------------------------------------------

    def check(self):
        """Every check on the last complete round's outputs: [(name, ok, detail)]."""
        results = list(self.results)
        results.append(checks.exact_expectation_matches_enumeration(self.seed))
        if not self.last:
            return results
        cfg, art = self.config, self.last
        encoder, params = art["encoder"], art["params"]
        views = checks.check_views(cfg, min(cfg.batch_size, 8))
        results += [
            checks.fft_batch_matches_numpy(views, encoder.forward(params, views),
                                           cfg.fft_alpha, cfg.seed),
            checks.gradient_matches_differences(encoder, params, views, cfg.tau, self.seed),
            checks.epoch_losses_bounded(
                os.path.join(cfg.output_dir, training.METRICS_NAME), cfg.tau, cfg.batch_size),
            checks.identity_gap_matches_class_means(cfg, encoder, params, self.eval_data,
                                                    self.seed),
            checks.fgsm_contract(art["model"], self.eval_data, FGSM_EPSILON),
            checks.k_trend_all_shrink(*art["k_trend"], self.workload.worlds),
        ]
        for mode in ("base", "fft"):
            results.append((f"shift_gap_{mode}", math.isfinite(art[mode]) and art[mode] > 0.0,
                            f"aggregate {art[mode]:.6g}"))
        return results

