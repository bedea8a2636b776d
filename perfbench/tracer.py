"""Run one benchmark op in this process with timing shims around the calls
into each xagsynth module's public functions, then write the spans out.

Usage: python perfbench/tracer.py SPANS_OUT MODE KIND ARGS...

MODE is ``time`` or ``memory``; ``memory`` runs under tracemalloc and
records the peak allocation of the layers that hold wide columns or big
texts. KIND is ``cli`` (ARGS are xagsynth CLI arguments) or ``convert``
(ARGS are the two paths of perfbench/convert.py).

A span is ``[name, parent, start, end, counters]``; parent is the index of
the enclosing span or -1. The per-gate builder methods are not wrapped:
their work is counted from the finished circuit instead.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import xagsynth.circuit as circuit_mod
import xagsynth.cli as cli_mod
import xagsynth.io_formats as io_mod
import xagsynth.synth as synth_mod
import xagsynth.verify as verify_mod

MIB = 1 << 20


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.deferred: list = []  # (span, function computing its counters)
        self.missing: list[str] = []

    def wrap(self, name, fn, count=None, defer=None, peak=False):
        """Shim that records a span around ``fn``. ``count(args, result)``
        returns counters at once; ``defer(result)`` returns a function that
        computes them after the op, outside every span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        track_peak = peak and self.memory

        def shim(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            if track_peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4].update(count(args, result))
            if defer is not None:
                self.deferred.append((span, defer(result)))
            if track_peak:
                span[4][name + ".peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
            return result

        return shim

    def install(self, name, owners, **options):
        """Shim ``attr`` on every (owner, attr) where callers look the name up."""
        present = [(owner, attr) for owner, attr in owners if hasattr(owner, attr)]
        if not present:
            self.missing.append(name)
        for owner, attr in present:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def finish(self) -> None:
        for span, compute in self.deferred:
            span[4].update(compute())


def install_all(tracer: Tracer) -> None:
    Circuit = circuit_mod.Circuit
    reachable = Circuit.reachable

    def plan_counts(plan):
        circuit = plan.circuit
        return lambda: {"synth.gates_built": len(circuit.gates),
                        "synth.gates_reachable": sum(reachable(circuit))}

    def bristol_counts(args, text):
        return {"io_formats.export_bristol.bytes": len(text),
                "io_formats.bristol_gates": int(text[:text.index(" ")])}

    def report_counts(args, report):
        return {"verify.points_checked": report.inputs_checked}

    install = tracer.install
    install("synth.synthesize_plan",
            [(cli_mod, "synthesize_plan"), (synth_mod, "synthesize_plan")], defer=plan_counts)
    install("circuit.reachable", [(Circuit, "reachable")])
    install("circuit.and_count", [(Circuit, "and_count")])
    install("circuit.validate", [(Circuit, "validate")])
    install("circuit.eval_all", [(Circuit, "eval_all")])
    install("circuit.output_columns", [(Circuit, "output_columns")], peak=True,
            count=lambda args, _: {"circuit.output_columns.gate_bits":
                                   len(args[0].gates) * args[2]})
    install("bitops.variable_column", [(circuit_mod, "variable_column")])
    install("io_formats.export_bristol", [(cli_mod, "export_bristol")], count=bristol_counts)
    install("io_formats.import_bristol", [(io_mod, "import_bristol")],
            count=lambda args, _: {"io_formats.import_bristol.bytes": len(args[0])})
    install("io_formats.export_json", [(cli_mod, "export_json"), (io_mod, "export_json")],
            peak=True, count=lambda _, text: {"io_formats.export_json.bytes": len(text)})
    install("verify.check_exhaustive", [(cli_mod, "check_exhaustive")], count=report_counts)
    install("verify.check_sampled", [(cli_mod, "check_sampled")], count=report_counts)
    install("verify.leave_one_out_columns", [(verify_mod, "leave_one_out_columns")])
    install("cli.write_text_atomic", [(cli_mod, "write_text_atomic")],
            count=lambda args, _: {"cli.write_text_atomic.bytes": len(args[1])})


def main(argv: list[str]) -> int:
    spans_out, mode, kind, *args = argv
    tracer = Tracer(memory=mode == "memory")
    install_all(tracer)
    if tracer.memory:
        tracemalloc.start()
    if kind == "cli":
        code = tracer.wrap("cli.cli", cli_mod.cli)(args)
    else:
        import convert
        convert.convert(*args)
        code = 0
    if tracer.memory:
        tracemalloc.stop()
    tracer.finish()
    with open(spans_out, "w") as fh:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
