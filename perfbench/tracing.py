"""Per-layer spans around sievedops' public entry points, from outside.

Tracer.install() replaces each public function or method named in LAYERS
with a wrapper that counts calls and self time (span minus the spans of
wrapped callees).  Every module binding of a function is patched, so a name
that one module imports from another is traced at all of its call sites.
A name missing from the package under test is skipped and its layer's
metrics are left out.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# layer -> public callables it owns, as (module, attribute path)
LAYERS = {
    "polycore.mul": [("polycore", "Poly.__mul__")],
    "polycore.linear": [
        ("polycore", "Poly.__add__"),
        ("polycore", "Poly.__sub__"),
        ("polycore", "Poly.__neg__"),
        ("polycore", "Poly.scale"),
    ],
    "polycore.compose": [("polycore", "Poly.compose")],
    "chebyshev.basis": [("chebyshev", "t_hat"), ("chebyshev", "u_hat")],
    "chebyshev.identity": [("chebyshev", "identity_residual")],
    "recurrence.sieved_monic": [("recurrence", "sieved_monic")],
    "recurrence.mapping": [("recurrence", "mapping_residual")],
    "semiclassical.structure": [
        ("semiclassical", "structure_residual"),
        ("semiclassical", "structure_pair"),
    ],
    "semiclassical.recursive": [("semiclassical", "structure_pair_recursive")],
    "semiclassical.ode": [
        ("semiclassical", "ode_residual"),
        ("semiclassical", "ode_data"),
    ],
    "numerics.zeros": [("numerics", "zeros")],
    "numerics.zero_residuals": [("numerics", "zero_residuals")],
    "numerics.orthogonality": [("numerics", "orthogonality_defect")],
    "electrostatics.solve": [("electrostatics", "solve_equilibrium")],
    "electrostatics.energy": [("electrostatics", "energy")],
    "electrostatics.is_feasible": [("electrostatics", "is_feasible")],
    "electrostatics.verify": [("electrostatics", "verify_theorem")],
    "cli.main": [("cli", "main")],
}

# layers whose spans also count the exact products made beneath them:
# products per call shows how much of a recurrence table each lookup rebuilds
COUNT_PRODUCTS_UNDER = ("recurrence.sieved_monic", "semiclassical.recursive")


class Layer:
    __slots__ = ("calls", "self_s", "depth", "products_under")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0
        self.products_under = 0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.child_time = [0.0]  # time of finished child spans, per open span
        self.products = 0
        self.out_deg_sum = 0  # None once a product has no degree attribute
        self.solves = []  # (iterations, converged) of each solver result

    def _wrap(self, layer: Layer, fn, on_result):
        stack = self.child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            layer.depth += 1
            products_before = self.products
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                layer.depth -= 1
                layer.calls += 1
                layer.self_s += elapsed - stack.pop()
                stack[-1] += elapsed
                if layer.depth == 0:
                    layer.products_under += self.products - products_before
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _on_product(self, result):
        self.products += 1
        degree = getattr(result, "degree", None)
        if degree is None:
            self.out_deg_sum = None
        elif self.out_deg_sum is not None and math.isfinite(degree):
            self.out_deg_sum += int(degree)

    def _on_solve(self, result):
        self.solves.append(
            (getattr(result, "iterations", None), getattr(result, "converged", None))
        )

    def install(self) -> None:
        """Patch every binding of every LAYERS callable found in sievedops."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "sievedops"
        ]
        hooks = {"polycore.mul": self._on_product, "electrostatics.solve": self._on_solve}
        for layer_name, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = sys.modules.get(f"sievedops.{mod_name}")
                owner_path, _, attr = path.rpartition(".")
                if owner_path:
                    owner = getattr(owner, owner_path, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                layer = self.layers.setdefault(layer_name, Layer())
                wrapped = self._wrap(layer, original, hooks.get(layer_name))
                if owner_path:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def metrics(self) -> dict:
        """Per-layer values of one pass; layers not found are left out."""
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
            if name in COUNT_PRODUCTS_UNDER:
                out[f"{name}.mul_per_call"] = (
                    layer.products_under / layer.calls if layer.calls else 0.0
                )
        if "polycore.mul" in self.layers and self.out_deg_sum is not None:
            out["polycore.mul.out_deg_sum"] = self.out_deg_sum
        solve = self.layers.get("electrostatics.solve")
        if solve is not None and all(None not in s for s in self.solves):
            iters = sum(int(i) for i, _ in self.solves)
            out["electrostatics.newton_iters"] = iters
            out["electrostatics.converged_frac"] = (
                sum(bool(c) for _, c in self.solves) / len(self.solves)
                if self.solves else 0.0
            )
            energy = self.layers.get("electrostatics.energy")
            if energy is not None:
                out["electrostatics.energy_per_iter"] = (
                    energy.calls / iters if iters else 0.0
                )
        return out
