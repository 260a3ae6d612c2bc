"""Per-layer tracing of the revivals package from outside.

The layers are the package's modules. ``Tracer.install`` wraps every public
function of each layer module and every public method of its public classes,
then rebinds each name that refers to an original anywhere in the package:
module attributes (``revivals.cli.autocorrelation`` is the same object as
``revivals.moments.autocorrelation``), class attributes such as
``Spectrum.energies`` and values of module-level dicts such as the CLI's
observable table. ``uninstall`` puts every original back.

Each wrapped call records a span (id, parent id, job id, layer, name, start,
end) in memory. Self time is a span's duration minus that of its direct
children; it is summed per function as the call runs, so the per-layer
totals need no second pass over the spans. Exceptions are counted per layer
and re-raised.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable

import numpy as np

LAYERS = ("cli", "fock", "spectra", "ordering", "moments", "angular", "carpets", "classical")

#: Self-time metrics that group several functions of one layer.
_GROUPS = {
    "moments.closed_form": {
        "ladder_moment", "general_moment", "expect_x", "expect_p", "expect_x2",
        "expect_p2", "expect_x_power", "uncertainty_trace",
    },
    "angular.closed_form": {"angular_moment", "lx_moment", "lx_power_expand"},
    "angular.oracle": {"lx_moment_oracle"},
}

#: Single functions whose self time is reported on its own.
_FUNCTIONS = (
    "carpets.carpet", "carpets.hermite_functions", "carpets.grid_to_csv", "carpets.grid_to_pgm",
    "moments.autocorrelation", "moments.numerical_expectation",
    "fock.coherent_amplitudes", "fock.ladder_product_matrix", "fock.number_distribution",
    "spectra.Spectrum.energies", "spectra.evolve", "spectra.decompose_fractional",
)


def _counters(revivals) -> dict[str, Callable]:
    """Work counts per wrapped function, computed from its arguments and result.

    Each entry maps a qualified name to f(bound_arguments, result) returning
    (counter, amount) pairs. The originals of library helpers are captured
    here, before install, so counting never records spans of its own.
    """
    auto = revivals.fock.auto_truncation
    terms = revivals.ordering.interference_power_terms

    def levels(args):
        truncation = args.get("truncation")
        return (auto(args["label"].nu) if truncation is None else truncation) + 1

    def points(key):
        return lambda a, r: [("moments.closed_form.points", np.size(a[key]))]

    def oracle_dim(a, r):
        n = a.get("per_mode_truncation")
        if n is None:
            n = auto(max(a["label"].mode_b.nu, a["label"].mode_c.nu))
        return [("angular.oracle.dim", (n + 1) ** 2)]

    counters = {
        "cli.main": lambda a, r: [("cli.calls", 1)],
        "carpets.carpet": lambda a, r: [("carpets.carpet.cells", r.nt * r.nx * levels(a))],
        "moments.autocorrelation": lambda a, r: [
            ("moments.autocorrelation.cells", np.size(a["t"]) * levels(a))
        ],
        "moments.ladder_moment": points("t"),
        "moments.expect_x_power": points("t"),
        "moments.uncertainty_trace": points("times"),
        "moments.general_moment": lambda a, r: [("moments.closed_form.points", 1)],
        "angular.angular_moment": lambda a, r: [("angular.closed_form.terms", len(terms(a["n"])))],
        "angular.lx_moment_oracle": oracle_dim,
        "fock.coherent_amplitudes": lambda a, r: [
            ("fock.coherent_amplitudes.calls", 1), ("fock.levels", r.amplitudes.size)
        ],
        "fock.number_distribution": lambda a, r: [("fock.levels", r.size)],
        "spectra.Spectrum.energies": lambda a, r: [("spectra.energies.levels", r.size)],
    }
    for name in ("expect_x", "expect_p", "expect_x2", "expect_p2"):
        counters["moments." + name] = points("t")
    return counters


#: Work counters, one pass each; they repeat exactly for a given seed.
COUNTS = (
    "cli.calls", "carpets.carpet.cells", "moments.autocorrelation.cells",
    "moments.closed_form.points", "angular.closed_form.terms", "angular.oracle.dim",
    "fock.coherent_amplitudes.calls", "fock.levels", "spectra.energies.levels", "ordering.calls",
)


def layer_time_metric(layer: str) -> str:
    """Name of a layer's total self time."""
    return "cli.self_ms" if layer == "cli" else f"{layer}.ms"


#: Every self-time metric the tracer reports, in milliseconds.
TIMES = tuple(layer_time_metric(layer) for layer in LAYERS) + tuple(
    name.replace(".Spectrum", "") + ".ms" for name in _FUNCTIONS
) + tuple(group + ".ms" for group in _GROUPS)

ERRORS = tuple(f"{layer}.errors" for layer in LAYERS)


def self_time_metric(layer: str, name: str) -> str | None:
    """The per-function metric a span's self time feeds, if any."""
    qualified = f"{layer}.{name}"
    if qualified in _FUNCTIONS:
        return qualified.replace(".Spectrum", "") + ".ms"
    for group, members in _GROUPS.items():
        if group.startswith(layer + ".") and name in members:
            return group + ".ms"
    return None


class Tracer:
    """Wraps the package's layers, records spans and aggregates self time."""

    def __init__(self, revivals) -> None:
        self._revivals = revivals
        self._counters = _counters(revivals)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._job = -1
        self.reset()

    def reset(self) -> None:
        """Forget spans and totals (between passes)."""
        self.spans: list[tuple[int, int, int, str, str, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- installing -------------------------------------------------------

    def _modules(self):
        pkg = self._revivals
        return [pkg] + [getattr(pkg, layer) for layer in LAYERS]

    def _originals(self) -> dict[int, tuple[Callable, str, str]]:
        """id(original) -> (original, layer, name) for every public function and method."""
        found = {}
        for layer in LAYERS:
            module = getattr(self._revivals, layer)
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    found[id(value)] = (value, layer, name)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, member in vars(value).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            found[id(member)] = (member, layer, f"{name}.{attr}")
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(*entry) for key, entry in self._originals().items()}

        def patch(owner, key, value, is_item):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                self._patches.append((owner, key, value, is_item))
                if is_item:
                    owner[key] = wrapper
                else:
                    setattr(owner, key, wrapper)

        for module in self._modules():
            for name, value in list(vars(module).items()):
                patch(module, name, value, False)
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        patch(value, key, item, True)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        patch(value, attr, member, False)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        counter = self._counters.get(f"{layer}.{name}")
        signature = inspect.signature(fn) if counter is not None else None
        self_key = self_time_metric(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][0] if stack else -1 - tracer._job
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[layer + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                tracer.self_ns[layer] += own
                if self_key is not None:
                    tracer.self_ns[self_key] += own
                if layer == "ordering":
                    tracer.counts["ordering.calls"] += 1
                tracer.spans.append((span_id, parent, tracer._job, layer, name, start, end))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in counter(bound.arguments, result):
                    tracer.counts[key] += amount
            return result

        return traced

    def begin_job(self, job_id: int) -> None:
        """Spans recorded from now on belong to this job; its root span id is -1 - job_id."""
        self._job = job_id

    def end_job(self, start: int, end: int) -> None:
        """Record the root span of the current job from its perf_counter_ns bounds."""
        self.spans.append((-1 - self._job, 0, self._job, "bench", "job", start, end))

    def metrics(self) -> dict[str, float]:
        """Self times in ms, work counts and error counts of what was recorded since reset."""
        out: dict[str, float] = {name: 0.0 for name in TIMES}
        for key, ns in self.self_ns.items():
            out[layer_time_metric(key) if key in LAYERS else key] = ns / 1e6
        for name in COUNTS + ERRORS:
            out[name] = self.counts.get(name, 0)
        return out
