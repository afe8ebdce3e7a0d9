"""Per-layer tracing from outside the package.

Tracer.install() replaces public functions of spectral_billiards with
wrappers that record a span per call (self time = span minus the spans of
traced calls made inside it) and a few work counts read off arguments and
results.  A function imported by name into another module is replaced
there too, so `tori.billiard_map` and `radon.billiard_map` both report as
`billiard.billiard_map`.  uninstall() puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

CLI_COMMANDS = ("map", "circle", "radon", "potential", "homological", "quasimode",
                "cluster", "rigidity")


PER_LAYER = (
    "geometry.param_of_arclength.calls", "geometry.param_of_arclength.self_s",
    "geometry.arclength_of_param.calls", "geometry.arclength_of_param.self_s",
    "geometry.liouville_f.calls", "geometry.liouville_f.self_s",
    "billiard.billiard_map.calls", "billiard.billiard_map.self_s",
    "billiard.orbit.conic.bounces", "billiard.orbit.conic.self_s",
    "billiard.orbit.fourier.bounces", "billiard.orbit.fourier.self_s",
    "billiard.flowout_integral.phi_nodes", "billiard.flowout_integral.self_s",
    "tori.circle_conjugacy.calls", "tori.circle_conjugacy.self_s",
    "tori.rotation_number.self_s", "tori.action_data.self_s", "tori.map_calls_per_circle",
    "radon.liouville_radon.calls", "radon.liouville_radon.nodes", "radon.liouville_radon.self_s",
    "radon.f_evals_per_node", "radon.torus_invariant.calls", "radon.torus_invariant.self_s",
    "rigidity.radon_matrix.entries", "rigidity.radon_matrix.self_s",
    "rigidity.invert_radon.self_s",
    "rigidity.rotation_profile.levels", "rigidity.rotation_profile.self_s",
    "quasi.find_indices.indices", "quasi.find_indices.self_s",
    "quasi.solve_recursion.calls", "quasi.solve_recursion.self_s",
    "spectra.build_clusters.eigenvalues", "spectra.build_clusters.self_s",
    "spectra.verify_H2.eigenvalues", "spectra.verify_H2.self_s",
    "spectra.trap_constancy.self_s",
    "disk.dirichlet_spectrum.eigenvalues", "disk.dirichlet_spectrum.self_s",
    "wiener.solve_homological.self_s",
) + tuple(f"cli.{c}.{m}" for c in CLI_COMMANDS for m in ("calls", "self_s"))

# ratio metrics: (numerator count, denominator count, unit)
RATIOS = {
    "tori.map_calls_per_circle": ("tori.circle_conjugacy.map_calls", "tori.circle_conjugacy.calls",
                                  "calls/circle"),
    "radon.f_evals_per_node": ("radon.liouville_radon.f_evals", "radon.liouville_radon.nodes",
                               "evals/node"),
}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self._stack = []
        self._f_acc = [0, 0.0]          # LiouvilleTable.f calls and seconds
        self._undo = []

    def reset(self):
        self.self_s.clear()
        self.counts.clear()
        self._f_acc[:] = [0, 0.0]

    # -- spans ---------------------------------------------------------------
    def wrap(self, name, fn, after=None):
        """name is a span name or a function of (args, kwargs) giving one."""
        stack, active, self_s, counts = self._stack, self.active, self.self_s, self.counts

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            frame = [0.0, 0]            # child span time, f calls made directly
            stack.append(frame)
            active[span] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[span] -= 1
                self_s[span] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                counts[span + ".calls"] += 1
                counts[span + ".f_evals"] += frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, new)

    def patch_function(self, modules, home, attr, span, after=None):
        original = getattr(home, attr)
        traced = self.wrap(span, original, after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, traced)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- the package's layers -------------------------------------------------
    def install(self):
        from spectral_billiards import (billiard, cli, disk, geometry, quasi, radon,
                                        rigidity, spectra, tori, wiener)
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "spectral_billiards" or k.startswith("spectral_billiards."))]
        counts, active = self.counts, self.active

        for cls in (geometry.BoundaryCurve, geometry.CircleCurve):
            for attr in ("param_of_arclength", "arclength_of_param"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self.wrap(f"geometry.{attr}", cls.__dict__[attr]))

        stack, f_acc = self._stack, self._f_acc

        def traced_table(args, kwargs, table):
            # f runs ~10^7 times a round on liouville-rigidity, so it gets a
            # lean span with list accumulators and no frame of its own (it
            # calls nothing traced).  Its caller is charged the whole call,
            # bookkeeping included, so the caller's self time stays honest.
            f = table.f

            def traced_f(x, m=0):
                t0 = perf_counter()
                value = f(x, m)
                f_acc[1] += perf_counter() - t0
                f_acc[0] += 1
                if stack:
                    frame = stack[-1]
                    frame[1] += 1
                    frame[0] += perf_counter() - t0
                return value

            table.f = traced_f

        self.patch_function(mods, geometry, "elliptic_table", "geometry.elliptic_table", traced_table)

        def count_map(args, kwargs, result):
            if active["tori.circle_conjugacy"]:
                counts["tori.circle_conjugacy.map_calls"] += 1

        self.patch_function(mods, billiard, "billiard_map", "billiard.billiard_map", count_map)

        def orbit_span(args, kwargs):
            kind = "fourier" if _arg(args, kwargs, 0, "curve").kind == "fourier" else "conic"
            return f"billiard.orbit.{kind}"

        def count_orbit(args, kwargs, result):
            counts[orbit_span(args, kwargs) + ".bounces"] += int(_arg(args, kwargs, 2, "m"))

        self.patch_function(mods, billiard, "orbit", orbit_span, count_orbit)

        def count_flowout(args, kwargs, result):
            n0 = int(_arg(args, kwargs, 3, "n_phi", 256))
            counts["billiard.flowout_integral.phi_nodes"] += 2 * result.n_phi - n0

        self.patch_function(mods, billiard, "flowout_integral", "billiard.flowout_integral",
                            count_flowout)
        for attr in ("circle_conjugacy", "rotation_number", "action_data"):
            self.patch_function(mods, tori, attr, f"tori.{attr}")

        def count_radon(args, kwargs, result):
            counts["radon.liouville_radon.nodes"] += result.n_nodes

        self.patch_function(mods, radon, "liouville_radon", "radon.liouville_radon", count_radon)
        self.patch_function(mods, radon, "torus_invariant", "radon.torus_invariant")

        def count_matrix(args, kwargs, result):
            counts["rigidity.radon_matrix.entries"] += result.entries.size

        def count_profile(args, kwargs, result):
            counts["rigidity.rotation_profile.levels"] += len(result["rows"])

        self.patch_function(mods, rigidity, "radon_matrix", "rigidity.radon_matrix", count_matrix)
        self.patch_function(mods, rigidity, "invert_radon", "rigidity.invert_radon")
        self.patch_function(mods, rigidity, "rotation_profile", "rigidity.rotation_profile",
                            count_profile)

        def count_indices(args, kwargs, result):
            counts["quasi.find_indices.indices"] += len(result)

        self.patch_function(mods, quasi, "find_indices", "quasi.find_indices", count_indices)
        self.patch_function(mods, quasi, "solve_recursion", "quasi.solve_recursion")

        def count_build(args, kwargs, result):
            counts["spectra.build_clusters.eigenvalues"] += len(_arg(args, kwargs, 0, "spec"))

        def count_h2(args, kwargs, result):
            counts["spectra.verify_H2.eigenvalues"] += sum(m["n_checked"] for m in result["per_member"])

        def count_disk(args, kwargs, result):
            counts["disk.dirichlet_spectrum.eigenvalues"] += len(result)

        self.patch_function(mods, spectra, "build_clusters", "spectra.build_clusters", count_build)
        self.patch_function(mods, spectra, "verify_H2", "spectra.verify_H2", count_h2)
        self.patch_function(mods, spectra, "trap_constancy", "spectra.trap_constancy")
        self.patch_function(mods, disk, "dirichlet_spectrum", "disk.dirichlet_spectrum", count_disk)
        self.patch_function(mods, wiener, "solve_homological", "wiener.solve_homological")

        table = cli.COMMANDS
        for command in CLI_COMMANDS:
            old = table[command]
            self._undo.append(lambda command=command, old=old: table.__setitem__(command, old))
            table[command] = self.wrap(f"cli.{command}", old)

    # -- metrics --------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since reset():
        name -> (value, unit)."""
        self.counts["geometry.liouville_f.calls"] = self._f_acc[0]
        self.self_s["geometry.liouville_f"] = self._f_acc[1]
        out = {}
        for name in PER_LAYER:
            if name in RATIOS:
                num, den, unit = RATIOS[name]
                den = self.counts[den]
                out[name] = (self.counts[num] / den if den else 0.0, unit)
            elif name.endswith(".self_s"):
                out[name] = (self.self_s[name[:-len(".self_s")]], "s")
            else:
                out[name] = (float(self.counts[name]), "count")
        return out
