"""Span tracing installed from outside the package under test.

``Tracer.install`` replaces each function named in ``TARGETS`` with a
wrapper that records one span per call: the function, start, end, the
enclosing span and the current request id.  Module-level functions are
re-bound in every ``vlie`` module that imported them by name, so calls
through ``from .formal_calc import gen_binomial`` are seen too.  Spans
stay in compact arrays until ``write`` stores them at the end of a pass.
"""

from __future__ import annotations

import json
import sys
import time
from array import array


def _vec_key(vec):
    return tuple(sorted((i, c) for i, c in dict(vec).items() if c))


def _state_key(state):
    return tuple(sorted((m, c) for m, c in state.items() if c))


def _index(self, a):
    return self.index[a] if isinstance(a, str) else int(a)


# Key functions mirror the arguments as the method resolves them, and start
# with the instance, because every memo in the package belongs to one
# structure or module.
def _mode_key(self, vec_or_name, n, _depth=0):
    if isinstance(vec_or_name, str):
        return id(self), ((self.index[vec_or_name], 1),), n
    return id(self), _vec_key(vec_or_name), n


def _component_bracket_key(self, a, m, b, n):
    return id(self), _index(self, a), m, _index(self, b), n


def _decompose_vector_key(self, vec):
    return id(self), _vec_key(vec)


def _mode_of_state_key(self, a, n, b):
    return id(self), _state_key(a), n, _state_key(b)


# (span name, module, attribute path, stats, key function for distinct_ratio)
# Stats name what the per-layer report emits for the span; calls are always
# counted.  ``construct`` is the class constructor.
TARGETS = [
    ("vertex_lie.mode", "vertex_lie", "VLStructure.mode", ("self_s", "distinct_ratio"), _mode_key),
    ("vertex_lie.component_bracket", "vertex_lie", "VLStructure.component_bracket",
     ("self_s", "distinct_ratio"), _component_bracket_key),
    ("vertex_lie.decompose_vector", "vertex_lie", "VLStructure.decompose_vector",
     ("self_s", "distinct_ratio"), _decompose_vector_key),
    ("vertex_lie.bracket_vectors", "vertex_lie", "VLStructure.bracket_vectors", ("self_s",), None),
    ("vertex_lie.bracket_elements", "vertex_lie", "VLStructure.bracket_elements", ("self_s",), None),
    ("vertex_lie.construct", "vertex_lie", "VLStructure.__init__", ("total_s",), None),
    ("vertex_lie.certify", "vertex_lie", "VLStructure.certify", ("total_s",), None),
    ("vertex_lie.verify_skew_symmetry", "vertex_lie", "VLStructure.verify_skew_symmetry", ("total_s",), None),
    ("vertex_lie.verify_jacobi", "vertex_lie", "VLStructure.verify_jacobi", ("total_s",), None),
    ("vacuum_module.act", "vacuum_module", "VacuumModule.act", ("self_s",), None),
    ("vacuum_module.act_element", "vacuum_module", "VacuumModule.act_element", ("self_s",), None),
    ("vacuum_module.mode_of_state", "vacuum_module", "VacuumModule.mode_of_state",
     ("self_s", "distinct_ratio"), _mode_of_state_key),
    ("vacuum_module.modes_of_pair", "vacuum_module", "VacuumModule.modes_of_pair", ("self_s",), None),
    ("vacuum_module.basis_states_upto", "vacuum_module", "VacuumModule.basis_states_upto", ("self_s",), None),
    ("vacuum_module.borcherds_check", "vacuum_module", "VacuumModule.borcherds_check",
     ("self_s", "total_s"), None),
    ("vacuum_module.character", "vacuum_module", "VacuumModule.character", ("self_s",), None),
    ("poisson_c2.c2_reduce", "poisson_c2", "c2_reduce", ("self_s",), None),
    ("poisson_c2.p2_product", "poisson_c2", "p2_product", ("self_s",), None),
    ("poisson_c2.p2_bracket", "poisson_c2", "p2_bracket", ("self_s",), None),
    ("poisson_c2.p2_structure", "poisson_c2", "p2_structure", ("self_s",), None),
    ("poisson_c2.verify_p2_iso", "poisson_c2", "verify_p2_iso", ("self_s", "total_s"), None),
    ("poisson_c2.VPDiffAlgebra.vp_bracket", "poisson_c2", "VPDiffAlgebra.vp_bracket", ("self_s",), None),
    ("poisson_c2.pvpa_quotient", "poisson_c2", "pvpa_quotient", ("self_s",), None),
    ("lattice_c2.enumerate_c2", "lattice_c2", "enumerate_c2", ("self_s",), None),
    ("lattice_c2.PLAlgebra.construct", "lattice_c2", "PLAlgebra.__init__", ("self_s",), None),
    ("lattice_c2.multiply", "lattice_c2", "PLAlgebra.multiply", ("self_s",), None),
    ("lattice_c2.bracket", "lattice_c2", "PLAlgebra.bracket", ("self_s",), None),
    ("lattice_c2.multiplication_table", "lattice_c2", "PLAlgebra.multiplication_table", ("self_s",), None),
    ("lattice_c2.bracket_table", "lattice_c2", "PLAlgebra.bracket_table", ("self_s",), None),
    ("lattice_c2.verify_axioms", "lattice_c2", "PLAlgebra.verify_axioms", ("self_s", "total_s"), None),
    ("lattice_c2.PowerIdealReducer.reduce", "lattice_c2", "PowerIdealReducer.reduce", ("self_s",), None),
    ("lattice_c2.bk_compare", "lattice_c2", "bk_compare", ("self_s", "total_s"), None),
    ("formal_calc.render", "formal_calc", "render", ("self_s",), None),
    ("formal_calc.decompose", "formal_calc", "decompose", ("self_s",), None),
    ("formal_calc.swap_side", "formal_calc", "swap_side", ("self_s",), None),
    ("formal_calc.gen_binomial", "formal_calc", "gen_binomial", ("self_s",), None),
    ("lie_core.sym_poisson", "lie_core", "sym_poisson", ("self_s",), None),
    ("lie_core.check_lie_axioms", "lie_core", "check_lie_axioms", ("self_s",), None),
    ("config.build_structure", "config", "build_structure", ("total_s",), None),
    ("cli.main", "cli", "main", ("total_s",), None),
]

MODULES = ("vertex_lie", "vacuum_module", "poisson_c2", "lattice_c2", "formal_calc",
           "lie_core", "config", "cli")


# unit of each per-layer statistic, by the last part of the metric name
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "distinct_ratio": "ratio",
              "spans": "count", "overhead_s": "s"}


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.func = array("H")
        self.entry = array("d")  # the wrapper is entered
        self.start = array("d")  # the wrapped function is called
        self.end = array("d")  # the wrapped function returns
        self.exit = array("d")  # the wrapper returns
        self.parent = array("i")
        self.request = array("i")
        self.outermost = array("b")
        self.stack: list[int] = []
        self.active = [0] * len(TARGETS)
        self.keys: list[set | None] = [set() if t[4] else None for t in TARGETS]
        # instances whose arguments were keyed stay referenced until the pass
        # ends, so no later instance reuses their id
        self.instances: dict[int, object] = {}
        self.request_id = -1
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, keyfn):
        func, entry, start, end, exit_ = self.func, self.entry, self.start, self.end, self.exit
        parent, request, outermost = self.parent, self.request, self.outermost
        stack, active, instances = self.stack, self.active, self.instances
        keys = self.keys[fid]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_in = clock()
            if keys is not None:
                instances[id(args[0])] = args[0]
                keys.add(hash(keyfn(*args, **kwargs)))
            idx = len(func)
            func.append(fid)
            entry.append(t_in)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            outermost.append(active[fid] == 0)
            end.append(0.0)
            exit_.append(0.0)
            active[fid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[fid] -= 1
                exit_[idx] = clock()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        """Wrap every target; the ``vlie`` package must already be imported."""
        for fid, (_, module, path, _, keyfn) in enumerate(TARGETS):
            mod = sys.modules[f"vlie.{module}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                wrapped = self._wrap(fid, original, keyfn)
                setattr(owner, attr, wrapped)
                self._originals.append((owner, attr, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(fid, original, keyfn)
            for name, other in list(sys.modules.items()):
                if other is None or not (name == "vlie" or name.startswith("vlie.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
                        self._originals.append((other, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        A span's duration runs from the call of the wrapped function to its
        return.  Self time is the duration minus the time the wrappers of its
        direct children cover, from their entry to their exit, so the
        tracer's own work (keying arguments, recording spans) is nobody's
        self time.  Total time sums only the outermost span of each
        recursion, so recursive calls are not counted twice.
        """
        n_funcs = len(TARGETS)
        calls = [0] * n_funcs
        total = [0.0] * n_funcs
        self_time = [0.0] * n_funcs
        child = [0.0] * len(self.func)
        for idx in range(len(self.func) - 1, -1, -1):
            dur = self.end[idx] - self.start[idx]
            fid = self.func[idx]
            calls[fid] += 1
            self_time[fid] += dur - child[idx]
            if self.outermost[idx]:
                total[fid] += dur
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.exit[idx] - self.entry[idx]
        out: dict[str, float] = {}
        module_self = {m: 0.0 for m in MODULES}
        for fid, (name, module, _, stats, _) in enumerate(TARGETS):
            out[f"{name}.calls"] = calls[fid]
            module_self[module] += self_time[fid]
            for stat in stats:
                if stat == "self_s":
                    out[f"{name}.self_s"] = self_time[fid]
                elif stat == "total_s":
                    out[f"{name}.total_s"] = total[fid]
                else:
                    out[f"{name}.distinct_ratio"] = (
                        len(self.keys[fid]) / calls[fid] if calls[fid] else 0.0
                    )
        for m, v in module_self.items():
            out[f"{m}.module.self_s"] = v
        out["trace.spans"] = len(self.func)
        return out

    def write(self, path):
        """Store the spans: a JSON index next to one binary file per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("func", "entry", "start", "end", "exit", "parent", "request", "outermost")
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump({
                "names": self.names,
                "spans": len(self.func),
                "fields": {f: getattr(self, f).typecode for f in fields},
            }, fh)
        for f in fields:
            with open(path.with_suffix(f".{f}.bin"), "wb") as fh:
                getattr(self, f).tofile(fh)

