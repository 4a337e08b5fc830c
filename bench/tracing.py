"""Spans around calls into each brqsim layer, installed from outside.

The tracer replaces each traced function under every name it is looked
up by (a module attribute, a class attribute, or a name imported into
another module) with a wrapper that records a span: name, start, end
and the innermost enclosing span.  Spans stay in flat arrays until the
run ends.  A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

import numpy as np

import brqsim
from brqsim import analytics, channel, cli, engine, protocol, quantizer

# Span name -> every (owner, attribute) under which the function is looked up.
TARGETS = {
    "channel.sample": [(channel.Rayleigh, "sample")],
    "protocol.session": [(protocol, "run_full_csit"), (engine, "run_full_csit"),
                         (brqsim, "run_full_csit"), (protocol, "run_quantized"),
                         (engine, "run_quantized"), (brqsim, "run_quantized")],
    "protocol.tx_step": [(protocol.BrqTransmitter, "step")],
    "protocol.rx_step": [(protocol.BrqReceiver, "step")],
    "protocol.source_fetch": [(protocol.SourceStream, "fetch")],
    "protocol.reassembly_push": [(protocol.ReassemblyStream, "push")],
    "quantizer.encode": [(quantizer, "encode_feedback_block"),
                         (protocol, "encode_feedback_block")],
    "quantizer.decode": [(quantizer, "decode_feedback_block"),
                         (protocol, "decode_feedback_block")],
    "engine.replicate": [(engine, "run_replicated"), (brqsim, "run_replicated")],
    "engine.sweep": [(engine, "sweep_mean_snr"), (engine, "sweep_threshold_ratio")],
    "analytics.waterfilling": [(analytics, "waterfilling_rate")],
    "analytics.full_csit": [(analytics, "avg_rate_full_csit")],
    "analytics.quantized": [(analytics, "avg_rate_quantized")],
    "analytics.prior_fixed": [(analytics, "avg_rate_prior_fixed_power")],
    "analytics.r_limited": [(analytics, "avg_rate_r_limited")],
    "analytics.delay": [(analytics, "avg_delay_slots")],
    "cli.main": [(cli, "main")],
}

COUNTERS = ("channel.samples", "protocol.slots", "protocol.renewals", "protocol.chain_slots",
            "protocol.max_chain_length", "protocol.payload_bits", "protocol.held_window_bits",
            "quantizer.bits_used", "quantizer.bit_budget", "engine.sweep_points",
            "analytics.quad_calls", "analytics.quad_evals")


class Tracer:
    """Records spans and counts while installed; restores everything on uninstall."""

    def __init__(self) -> None:
        self.span_names = list(TARGETS)
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for buf in (self.name_of, self.parent, self.start, self.end):
            del buf[:]
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}  # one wrapper per original function
        for nid, name in enumerate(self.span_names):
            hook = getattr(self, "_on_" + name.replace(".", "_"), None)
            for owner, attr in TARGETS[name]:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(nid, original, hook)
                setattr(owner, attr, wrapped[id(original)])
        self._saved.append((analytics, "integrate", analytics.integrate))
        analytics.integrate = types.SimpleNamespace(quad=self._counting_quad(analytics.integrate.quad))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, nid, fn, hook):
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _counting_quad(self, quad):
        """scipy's quad as analytics sees it, counting calls and integrand evaluations."""

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            out = quad(*args, **kwargs)
            self.counts["analytics.quad_calls"] += 1
            if kwargs.get("full_output"):
                self.counts["analytics.quad_evals"] += int(out[2]["neval"])
            return out

        return counted

    # -- count hooks: (args, kwargs, result) of the traced call ---------

    def _on_channel_sample(self, args, kwargs, result) -> None:
        self.counts["channel.samples"] += int(np.size(result))

    def _on_protocol_session(self, args, kwargs, log) -> None:
        c = self.counts
        c["protocol.slots"] += log.horizon
        c["protocol.renewals"] += len(log.renewals)
        lengths = [r.chain_length for r in log.renewals]
        c["protocol.chain_slots"] += sum(lengths)
        c["protocol.max_chain_length"] = max([c["protocol.max_chain_length"], *lengths])
        c["protocol.held_window_bits"] += log.held_window_bits

    def _on_protocol_source_fetch(self, args, kwargs, result) -> None:
        if result[1] is not None:
            self.counts["protocol.payload_bits"] += len(result[1])

    def _on_quantizer_encode(self, args, kwargs, block) -> None:
        config = args[1] if len(args) > 1 else kwargs["config"]
        self.counts["quantizer.bits_used"] += len(block.bits)
        self.counts["quantizer.bit_budget"] += config.bit_budget

    def _on_engine_sweep(self, args, kwargs, points) -> None:
        self.counts["engine.sweep_points"] += len(points)

    # -- aggregation ------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (total duration, total self time, number of spans)."""
        n = len(self.end)
        names = np.array(self.name_of, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        k = len(self.span_names)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        calls = np.bincount(names, minlength=k)
        return {name: (float(total[i]), float(own[i]), int(calls[i]))
                for i, name in enumerate(self.span_names)}

    def dump(self, path: str) -> None:
        """Write the recorded spans, times relative to the first span's start."""
        start = np.array(self.start)
        origin = start[0] if len(start) else 0.0
        np.savez(path, span_names=np.array(self.span_names), name=np.array(self.name_of),
                 parent=np.array(self.parent), start=start - origin,
                 end=np.array(self.end) - origin)
