"""Module-to-layer map and the attribution of a cProfile run to layers.

Every module under ``src/repro`` belongs to exactly one layer.  A module
is matched by its own name in :data:`MODULE_LAYERS` or, failing that, by
its nearest package in :data:`PACKAGE_LAYERS`; a module neither covers
raises :class:`LayerMapError` (see :func:`check_coverage`), so code added
in a new package cannot go unattributed.

:func:`attribute` folds a profile into per-layer figures:

* **self time** - the profile's own time of each function in the layer.
  Functions outside ``repro`` (stdlib, builtins, numpy) have their own
  time charged to the layers that called them, in proportion to the
  time each caller spent in them, so the time ``net.channel`` spends in
  numpy counts as channel time;
* **spans** - calls that cross into the layer from another layer (or
  from the benchmark itself), with their count and inclusive time.  A
  layer that re-enters itself through another layer counts the inner
  crossing again, so inclusive time can exceed wall time;
* **boundary counts** - exact call counts of named functions.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Modules matched by their exact name.
MODULE_LAYERS: Dict[str, str] = {
    "repro": "support",
    "repro.version": "support",
    "repro.net.interface": "net.interface",
    "repro.net.channel": "net.channel",
    "repro.net.packet": "net.packet",
    "repro.net.addressing": "net.packet",
    "repro.net.propagation": "net.propagation",
    "repro.exec.cache": "exec.cache",
    "repro.exec.artifact": "exec.cache",
    "repro.campaign.store": "campaign.store",
    "repro.experiments.figures": "experiments.figures",
    "repro.experiments.table1": "experiments.figures",
    "repro.cli.serve": "cli.serve",
}

#: Packages whose modules default to one layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.sim": "sim.engine",
    "repro.net": "net.node",
    "repro.mac": "mac.dcf",
    "repro.routing": "routing",
    "repro.core": "core.mts",
    "repro.transport": "transport",
    "repro.apps": "transport",
    "repro.mobility": "mobility",
    "repro.metrics": "metrics",
    "repro.security": "metrics",
    "repro.scenario": "scenario.builder",
    "repro.exec": "exec.scheduler",
    "repro.campaign": "campaign.runner",
    "repro.experiments": "experiments.sweep",
    "repro.cli": "support",
    "repro.bench": "support",
    "repro.lint": "support",
    "repro.registry": "support",
}

#: Layer of code that is not in ``repro``: the benchmark itself, and
#: stdlib or third-party code no ``repro`` function called.
OUTSIDE = "outside"


class LayerMapError(RuntimeError):
    """A module under ``src/repro`` has no layer."""


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted ``repro`` module name, or ``None``."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    package = module
    while "." in package:
        package = package.rsplit(".", 1)[0]
        if package in PACKAGE_LAYERS:
            return PACKAGE_LAYERS[package]
    return PACKAGE_LAYERS.get(module)


def module_name(path: Path, src_root: Path) -> Optional[str]:
    """Dotted module name of ``path`` if it lies in ``src_root/repro``."""
    try:
        relative = path.relative_to(src_root)
    except ValueError:
        return None
    if relative.suffix != ".py" or relative.parts[0] != "repro":
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src_root: Path) -> List[str]:
    """Every module under ``src_root/repro``, sorted."""
    return sorted(module_name(path, src_root)
                  for path in (src_root / "repro").rglob("*.py"))


def check_coverage(src_root: Path) -> Dict[str, str]:
    """Layer of every module under ``src_root/repro``; raises if any has none."""
    mapping: Dict[str, str] = {}
    unmapped = []
    for module in repro_modules(src_root):
        layer = layer_of(module)
        if layer is None:
            unmapped.append(module)
        else:
            mapping[module] = layer
    if unmapped:
        raise LayerMapError(
            f"modules without a layer: {', '.join(unmapped)}; add them to "
            f"MODULE_LAYERS or PACKAGE_LAYERS in perfbench/layers.py")
    return mapping


# ---------------------------------------------------------------------- #
# profile attribution
# ---------------------------------------------------------------------- #
#: A pstats function key: (filename, first line, function name).
FuncKey = Tuple[str, int, str]


@dataclasses.dataclass
class LayerTotals:
    """Per-layer figures of one profile."""

    self_s: Dict[str, float]
    span_calls: Dict[str, int]
    incl_s: Dict[str, float]
    #: Exact call counts keyed by ``(filename, line, name)``.
    calls: Dict[FuncKey, int]
    #: Crossing edges as ``(caller layer, callee) -> (calls, inclusive s)``.
    crossings: Dict[Tuple[str, FuncKey], Tuple[int, float]]


def attribute(stats: Mapping[FuncKey, tuple], src_root: Path,
              mapping: Mapping[str, str]) -> LayerTotals:
    """Fold ``pstats``-shaped ``stats`` into per-layer figures."""
    src_root = Path(os.path.realpath(src_root))
    own: Dict[FuncKey, Optional[str]] = {}
    for func in stats:
        module = (module_name(Path(os.path.realpath(func[0])), src_root)
                  if func[0] not in ("~", "") else None)
        own[func] = mapping.get(module) if module is not None else None
    shares = _fold_shares(stats, own)

    self_s: Dict[str, float] = {}
    for func, (_, _, tottime, _, callers) in stats.items():
        if own[func] is not None:
            _add(self_s, own[func], tottime)
            continue
        for caller, edge in callers.items():
            for layer, weight in shares.get(caller, {OUTSIDE: 1.0}).items():
                _add(self_s, layer, edge[2] * weight)

    span_calls: Dict[str, int] = {}
    incl_s: Dict[str, float] = {}
    crossings: Dict[Tuple[str, FuncKey], Tuple[int, float]] = {}
    for func, (_, _, _, _, callers) in stats.items():
        layer = own[func]
        if layer is None:
            continue
        for caller, edge in callers.items():
            caller_layer = _dominant(shares.get(caller, {OUTSIDE: 1.0}))
            if caller_layer == layer:
                continue
            span_calls[layer] = span_calls.get(layer, 0) + edge[0]
            _add(incl_s, layer, edge[3])
            calls, seconds = crossings.get((caller_layer, func), (0, 0.0))
            crossings[(caller_layer, func)] = (calls + edge[0],
                                               seconds + edge[3])
        if not callers:
            span_calls[layer] = span_calls.get(layer, 0) + stats[func][1]
            _add(incl_s, layer, stats[func][3])
    calls = {func: value[1] for func, value in stats.items()}
    return LayerTotals(self_s=self_s, span_calls=span_calls, incl_s=incl_s,
                       calls=calls, crossings=crossings)


def combine(parts: Iterable[LayerTotals]) -> LayerTotals:
    """The sum of the figures of several profiles."""
    total = LayerTotals(self_s={}, span_calls={}, incl_s={}, calls={},
                        crossings={})
    for part in parts:
        for mine, theirs in ((total.self_s, part.self_s),
                             (total.span_calls, part.span_calls),
                             (total.incl_s, part.incl_s),
                             (total.calls, part.calls)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        for key, (calls, seconds) in part.crossings.items():
            known = total.crossings.get(key, (0, 0.0))
            total.crossings[key] = (known[0] + calls, known[1] + seconds)
    return total


def _fold_shares(stats: Mapping[FuncKey, tuple],
                 own: Mapping[FuncKey, Optional[str]],
                 rounds: int = 50) -> Dict[FuncKey, Dict[str, float]]:
    """Layer mix of every function: one-hot for ``repro`` code, and for
    other code the own-time-weighted mix of its callers' mixes."""
    shares: Dict[FuncKey, Dict[str, float]] = {
        func: {layer: 1.0} if layer is not None else {OUTSIDE: 1.0}
        for func, layer in own.items()}
    foreign = [func for func, layer in own.items()
               if layer is None and stats[func][4]]
    for _ in range(rounds):
        changed = False
        for func in foreign:
            callers = stats[func][4]
            weights = {caller: edge[2] for caller, edge in callers.items()}
            if sum(weights.values()) <= 0.0:
                weights = {caller: float(edge[0])
                           for caller, edge in callers.items()}
            total = sum(weights.values())
            mix: Dict[str, float] = {}
            if total > 0.0:
                for caller, weight in weights.items():
                    for layer, share in shares.get(
                            caller, {OUTSIDE: 1.0}).items():
                        _add(mix, layer, share * weight / total)
            else:
                mix = {OUTSIDE: 1.0}
            if mix != shares[func]:
                shares[func] = mix
                changed = True
        if not changed:
            break
    return shares


def _dominant(mix: Mapping[str, float]) -> str:
    return max(sorted(mix), key=lambda layer: mix[layer])


def _add(target: Dict[str, float], key: str, value: float) -> None:
    target[key] = target.get(key, 0.0) + value


# ---------------------------------------------------------------------- #
# boundary functions
# ---------------------------------------------------------------------- #
def function_key(module: str, qualname: str) -> Optional[FuncKey]:
    """The pstats key of ``module.qualname``; ``None`` if it does not exist.

    Resolved through the live code object, so a renamed or removed
    function on another tree reads as missing instead of as zero calls.
    """
    try:
        target = importlib.import_module(module)
    except ImportError:
        return None
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    code = getattr(target, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def count_calls(totals: LayerTotals,
                functions: Iterable[Tuple[str, str]]) -> Optional[int]:
    """Total calls of the named functions; ``None`` if any is missing."""
    total = 0
    for module, qualname in functions:
        key = function_key(module, qualname)
        if key is None:
            return None
        total += totals.calls.get(key, 0)
    return total


def crossing(totals: LayerTotals, functions: Iterable[Tuple[str, str]],
             from_layer: Optional[str] = None,
             ) -> Optional[Tuple[int, float]]:
    """Calls and inclusive seconds of crossings into the named functions.

    Only calls from another layer count (``from_layer`` narrows that to
    one calling layer).  ``None`` if any function is missing.
    """
    calls = 0
    seconds = 0.0
    for module, qualname in functions:
        key = function_key(module, qualname)
        if key is None:
            return None
        for (caller_layer, func), (n, ct) in totals.crossings.items():
            if func == key and from_layer in (None, caller_layer):
                calls += n
                seconds += ct
    return calls, seconds
