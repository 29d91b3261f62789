"""In-memory span recorder installed around sharpshift's public functions.

The wrappers replace each function at the name its caller looks up (for
example ``training.fft_augment_batch``, which is what the training loop
calls, not ``fourier.fft_augment_batch``), so the program itself is not
edited. A span is ``[name, start, end, parent, child_seconds, items]``;
self time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from sharpshift import bounds, data, training
from sharpshift.encoder import Encoder

NAME, START, END, PARENT, CHILD, ITEMS = range(6)


def _image_count(args, kwargs):
    images = kwargs.get("images", args[2] if len(args) > 2 else None)
    return int(np.shape(images)[0]) if np.ndim(images) == 4 else 1


# (owner, attribute, span name, item counter or None)
TARGETS = (
    (data, "base_augment", "data.base_augment", None),
    (training, "fft_augment_batch", "fourier.fft_augment_batch", None),
    (training, "dft2", "fourier.channel_mix", None),
    (training, "reconstruct", "fourier.channel_mix", None),
    (training, "info_nce_batch_grad", "losses.info_nce_batch_grad", None),
    (Encoder, "loss_and_grad", "encoder.loss_and_grad", None),
    (Encoder, "forward", "encoder.forward", _image_count),
    (training, "sam_step", "sam.step", None),
    (training, "sgd_step", "sam.step", None),
    (training, "estimate_shift_gap", "shift.estimate_shift_gap", None),
    (bounds, "exact_info_nce_expectation", "bounds.exact_info_nce_expectation", None),
    (bounds, "surrogate_unsup_loss", "bounds.surrogate_unsup_loss", None),
    (training, "train_ssl", "training.train_ssl", None),
    (training, "save_checkpoint", "encoder.save_checkpoint", None),
    (training, "train_linear_probe", "evaluation.train_linear_probe", None),
    (training, "robust_accuracy", "evaluation.robust_accuracy", None),
)


class Tracer:
    """Collects spans from the functions it wraps; one tracer per run."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, counter=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            items = counter(args, kwargs) if counter else 1
            span = [name, time.perf_counter(), 0.0, parent, 0.0, items]
            open_spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_spans.pop()
                if parent is not None:
                    parent[CHILD] += span[END] - span[START]
                spans.append(span)

        return traced

    def _wrap_factory(self, factory):
        """``make_augment_fn`` returns a closure; trace the closure it returns."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap("shift.augment_fn", factory(*args, **kwargs))

        return traced_factory

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, counter in TARGETS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))
            saved.append((training, "make_augment_fn", training.make_augment_fn))
            training.make_augment_fn = self._wrap_factory(training.make_augment_fn)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self):
        """{span name: {"calls", "items", "s", "self_s"}} over every span."""
        out = {}
        for span in self.spans:
            entry = out.setdefault(span[NAME], {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0})
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["items"] += span[ITEMS]
            entry["s"] += duration
            entry["self_s"] += duration - span[CHILD]
        return out


def _noop():
    return None


def per_span_cost(n=20000):
    """Seconds one wrapper adds to a call, measured on a no-op."""
    traced = Tracer().wrap("calibrate", _noop)
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    wrapped = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        _noop()
    bare = time.perf_counter() - t0
    return max(wrapped - bare, 0.0) / n
