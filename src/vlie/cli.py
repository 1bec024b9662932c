"""Command line front end: structure inspection commands and check suites.

Exit codes: 0 all checks pass, 1 a mathematical check failed (with a
witness), 2 usage or configuration error.  Output is deterministic for a
fixed (config, seed) pair; timing is only attached with --timing since it
would break byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .config import (
    ConfigError,
    build_structure,
    exact,
    integer,
    load_config_file,
    load_json,
    parse_lambda,
    parse_lattice,
    parse_state_json,
    state_to_json,
)
from .formal_calc import (
    BiSeriesWindow,
    DeltaSeries,
    DPoly,
    LaurentPoly,
    decompose,
    delta_window,
    mul_power_diff,
    oracle_radius,
    rat_str,
    render,
    swap_side,
)
from .lattice_c2 import (EvenLattice, PLAlgebra, bk_compare, build_pl_algebra, detect_indefinite,
                         enumerate_c2)
from .lie_core import sl2
from .poisson_c2 import (
    p2_structure,
    pvpa_quotient,
    ultra_poisson_of_lie,
    verify_p2_iso,
    constant_order_table,
)
from .vacuum_module import UngradedError, VacuumModule, central_character
from .vertex_lie import (BilinearForm, CommAlgebra, novikov_candidate, quadratic_central_candidate,
                         symbol_order)

REPORT_VERSION = "1"


class Report:
    """Ordered check results with deterministic serialization."""

    def __init__(self, command: str, config: dict, seed: int, timing: bool):
        self.command = command
        self.config = config
        self.seed = seed
        self.timing = timing
        self.checks: list[dict] = []

    def run(self, name: str, fn):
        t0 = time.monotonic()
        problems = fn()
        ok = not problems
        entry = {"name": name, "pass": ok, "witness": problems[0] if problems else None}
        if self.timing:
            entry["ms"] = int((time.monotonic() - t0) * 1000)
        self.checks.append(entry)
        return ok

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def emit(self, fmt: str):
        self.checks.sort(key=lambda c: c["name"])
        if fmt == "json":
            payload = {
                "version": REPORT_VERSION,
                "command": self.command,
                "config": self.config,
                "seed": self.seed,
                "checks": self.checks,
                "choices": {
                    "monomial_order": "creation modes sorted by (mode, class, index)",
                    "cocycle": "upper-triangular bimultiplicative gauge",
                    "complements": "lowest-index pivot",
                },
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for c in self.checks:
                mark = "PASS" if c["pass"] else "FAIL"
                extra = f": {c['witness']}" if c["witness"] else ""
                ms = f"  [{c.get('ms')} ms]" if self.timing and "ms" in c else ""
                print(f"{mark} {c['name']}{extra}{ms}")
            total = len(self.checks)
            good = sum(1 for c in self.checks if c["pass"])
            print(f"{good}/{total} checks passed")


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------

def suite_delta(report: Report, args):
    rng = random.Random(report.seed)

    def power_identities():
        base = BiSeriesWindow.square(12)
        problems = []
        for n in range(9):
            dwin = delta_window(n, base)
            for m in range(9):
                series = mul_power_diff(m, DeltaSeries.single(n, LaurentPoly.constant("y", 1)))
                if not render(series, base).equal_on_overlap(dwin.mul_power_diff(m)):
                    problems.append(f"power identity fails at m={m}, n={n}")
        return problems

    report.run("delta.power-identities", power_identities)

    def round_trip():
        problems = []
        for t in range(args.samples):
            terms = []
            for order in rng.sample(range(6), rng.randint(1, 6)):
                coeffs = {}
                for _ in range(rng.randint(1, 3)):
                    coeffs[rng.randint(-4, 4)] = Fraction(
                        rng.randint(-5, 5), rng.randint(1, 4)
                    )
                poly = LaurentPoly("y", coeffs)
                if not poly.is_zero():
                    terms.append((order, poly))
            series = DeltaSeries(terms)
            win = render(series, BiSeriesWindow.square(15))
            if decompose(win, 5) != series:
                problems.append(f"round trip fails on sample {t}")
        return problems

    report.run("delta.decompose-round-trip", round_trip)

    def swap_involution():
        problems = []
        for t in range(args.samples // 2):
            coeffs = {rng.randint(-3, 3): Fraction(rng.randint(1, 5))}
            series = DeltaSeries([(rng.randint(0, 4), LaurentPoly("y", coeffs))])
            flipped = swap_side(series)
            if swap_side(flipped) != series:
                problems.append(f"involution fails on sample {t}")
                continue
            radius = max(oracle_radius(series), oracle_radius(flipped))
            win = BiSeriesWindow.square(radius)
            if not render(series, win).equal_on_overlap(render(flipped, win)):
                problems.append(f"render mismatch on sample {t}")
        return problems

    report.run("delta.swap-side", swap_involution)


def _builders_for_suite(args, structure):
    if args.builder:
        return [(args.builder, structure)]
    names = ["witt", "virasoro", "loop-sl2", "affine-sl2", "heisenberg:2", "novikov-dual"]
    return [(n, build_structure(n)) for n in names]


def suite_vla(report: Report, args, structure):
    window = args.window
    for name, structure in _builders_for_suite(args, structure):
        report.run(f"vla.skew.{name}", lambda s=structure: s.verify_skew_symmetry(window))
        report.run(f"vla.jacobi.{name}", lambda s=structure: s.verify_jacobi(window))

    def negative_controls():
        problems = []
        bad_loop = CommAlgebra(
            ("u", "v"), {("u", "u"): {"v": 1}, ("v", "v"): {"u": 1}}, check=False
        )
        if not novikov_candidate(bad_loop).verify_jacobi(3, ordered=True):
            problems.append("non-associative base slipped through the window check")
        unital = CommAlgebra(("one",), {("one", "one"): {"one": 1}})
        if quadratic_central_candidate(unital).verify_jacobi(3, ordered=True) == []:
            problems.append("nonzero cube slipped through the window check")
        return problems

    report.run("vla.negative-controls", negative_controls)


def suite_vacuum(report: Report, args, structure):
    name = args.builder or "virasoro"
    module = VacuumModule(structure, _central_character(
        structure, args, {"c": Fraction(1, 2)} if "c" in structure.basis else {}))

    if name == "virasoro":
        def golden_character():
            want = [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]
            got = module.character(10)
            return [] if got == want else [f"character {got} != {want}"]
        report.run("vacuum.character.virasoro", golden_character)

    def enumeration_consistency():
        problems = []
        for d in range(args.depth + 1):
            if len(module.basis_monomials(d)) != module.graded_dim(d):
                problems.append(f"enumeration mismatch at degree {d}")
        return problems

    report.run(f"vacuum.enumeration.{name}", enumeration_consistency)

    def borcherds():
        a, b = _generator_states(structure, module)
        return module.borcherds_check(a, b, window=args.window, degree=args.depth)

    report.run(f"vacuum.borcherds.{name}", borcherds)


def _generator_states(structure, module):
    """The default states of a Borcherds check: the first and the last
    complement generator, each at mode -1."""
    if not structure.u_prime_names:
        raise ConfigError("the structure has no complement generator for the default states")
    return (module.generator_state(structure.u_prime_names[0]),
            module.generator_state(structure.u_prime_names[-1]))


def suite_p2(report: Report, args):
    for name, lam in (("virasoro", {"c": Fraction(1, 2)}), ("affine-sl2", {"c": 1}),
                      ("loop-sl2", {})):
        report.run(f"p2.iso.{name}",
                   lambda name=name, lam=lam: verify_p2_iso(
                       build_structure(name), lam, samples=args.samples // 4, seed=report.seed))

    def ultra_loop():
        g = sl2()
        pres = pvpa_quotient(ultra_poisson_of_lie(g))
        problems = []
        for i in range(g.dim):
            for j in range(g.dim):
                if pres.bracket_gens(i, j) != g.bracket_poly(i, j):
                    problems.append(f"bracket mismatch at ({g.names[i]},{g.names[j]})")
        return problems

    report.run("p2.pvpa.ultra-sl2", ultra_loop)

    def table_skew():
        problems = ultra_poisson_of_lie(sl2()).check_table_skew()
        problems += constant_order_table(("u1", "u2"), [[2, 1], [1, 3]]).check_table_skew()
        if not constant_order_table(("u1", "u2"), [[0, 1], [2, 0]]).check_table_skew():
            problems.append("asymmetric table slipped through the skew check")
        return problems

    report.run("p2.vp-table-skew", table_skew)


def suite_lattice(report: Report, args):
    if args.gram:
        lattice = parse_lattice(args.gram)
        info = detect_indefinite(lattice)
        if info["zero_algebra"]:
            def zero_algebra():
                witness = info["witness"]
                if (witness is None or any(type(c) is not int for c in witness)
                        or lattice.norm(witness) >= 0):
                    return [f"{witness} is not an integer vector of negative norm"]
                return []

            report.run("lattice.zero-algebra", zero_algebra)
            return
        report.run("lattice.axioms", PLAlgebra(lattice).verify_axioms)
        return
    for k in (1, 2, 3):
        def compare(k=k):
            rep = bk_compare(k)
            return rep["problems"]
        report.run(f"lattice.rank1-compare.k{k}", compare)

    def a2_suite():
        alg = PLAlgebra(EvenLattice([[2, -1], [-1, 2]]))
        problems = []
        if len(alg.c2) != 7:
            problems.append(f"survivor count {len(alg.c2)} != 7")
        problems += alg.verify_axioms()
        return problems

    report.run("lattice.a2-axioms", a2_suite)

    def degenerations():
        problems = []
        for gram in ([[-2]], [[0, 1], [1, 0]]):
            if not detect_indefinite(EvenLattice(gram))["zero_algebra"]:
                problems.append(f"{gram} should give the zero algebra")
        return problems

    report.run("lattice.degenerations", degenerations)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    # the --builder structure (Virasoro for check vacuum without one) is
    # read before any suite runs, and the vla and vacuum suites share it
    structure = _structure(args, args.builder or "virasoro")
    report = Report(f"check {args.suite}", _echo_config(args), args.seed, args.timing)
    if args.suite in ("delta", "all"):
        suite_delta(report, args)
    if args.suite in ("vla", "all"):
        suite_vla(report, args, structure)
    if args.suite in ("vacuum", "all"):
        suite_vacuum(report, args, structure)
    if args.suite in ("p2", "all"):
        suite_p2(report, args)
    if args.suite in ("lattice", "all"):
        suite_lattice(report, args)
    report.emit(args.format)
    return 0 if report.all_pass else 1


def _echo_config(args) -> dict:
    out = {}
    for key in ("builder", "window", "depth", "samples", "gram", "config"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    lam = getattr(args, "lam", None)
    if lam:
        out["lambda"] = list(lam)
    return out


def _require_basis(structure, *names: str):
    for name in names:
        if name not in structure.index:
            raise ConfigError(f"unknown basis name {name!r}; basis: {', '.join(structure.basis)}")


def _structure(args, name: str | None = None):
    """The structure of ``name`` or --builder, built with the --config file."""
    config = load_config_file(args.config) if args.config else None
    return build_structure(name or args.builder, config)


def _central_character(structure, args, default):
    """The --lambda central character of ``structure``, or ``default`` when
    there is none; a name that is no central generator, or a central
    generator left out, is a configuration error."""
    lam = parse_lambda(args.lam) if args.lam else default
    try:
        return None if lam is None else central_character(structure, lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_bracket(args) -> int:
    structure = _structure(args)
    _require_basis(structure, args.a, args.b)
    element = structure.component_bracket(args.a, args.m, args.b, args.n)
    if args.format == "json":
        terms = [[structure.symbol_name(sym), sym[0], rat_str(element[sym])]
                 for sym in sorted(element, key=symbol_order)]
        print(json.dumps({"bracket": terms}, sort_keys=True))
    else:
        print(structure.format_modes(element))
    return 0


def cmd_character(args) -> int:
    structure = _structure(args)
    module = VacuumModule(structure, _central_character(structure, args, {}))
    values = module.character(args.depth)
    if args.format == "json":
        print(json.dumps({"depths": values}))
    else:
        print(",".join(str(v) for v in values))
    return 0


def cmd_act(args) -> int:
    structure = _structure(args)
    module = VacuumModule(structure, _central_character(structure, args, None))
    name, _, mode = args.mode.partition(":")
    try:
        n = integer(mode)
    except ConfigError:
        raise ConfigError("mode looks like name:n, e.g. omega:3") from None
    name = name.strip()
    _require_basis(structure, name)
    state = parse_state_json(module, args.state)
    out = module.act(name, n, state)
    if args.format == "json":
        print(json.dumps({"state": state_to_json(module, out)}))
    else:
        print(module.format_state(out))
    return 0


def cmd_borcherds(args) -> int:
    structure = _structure(args)
    module = VacuumModule(structure, _central_character(structure, args, {}))
    if not (args.a and args.b):
        first, last = _generator_states(structure, module)
    a = parse_state_json(module, args.a) if args.a else first
    b = parse_state_json(module, args.b) if args.b else last
    if not a or not b:
        # a zero state satisfies the identity trivially and checks nothing
        raise ConfigError("--a and --b must be nonzero states")
    report = Report("borcherds-check", _echo_config(args), args.seed, args.timing)
    report.run("borcherds",
               lambda: module.borcherds_check(a, b, window=args.window, degree=args.depth))
    report.emit(args.format)
    return 0 if report.all_pass else 1


def cmd_p2(args) -> int:
    structure = _structure(args)
    pres = p2_structure(structure, _central_character(structure, args, None))
    _print_presentation(pres, args.format, ideal=[pres.text(q) for q in pres.ideal],
                        notes=list(pres.notes))
    return 0


def _print_presentation(pres, fmt: str, **extra):
    """A Poisson presentation as text, or as JSON: its generators, its
    bracket table and the ``extra`` keys."""
    if fmt == "json":
        bracket = {f"{pres.generators[i]},{pres.generators[j]}": pres.text(val)
                   for (i, j), val in sorted(pres.table.items())}
        print(json.dumps({"generators": list(pres.generators), "bracket": bracket, **extra},
                         indent=2, sort_keys=True))
    else:
        print(pres)


def _vp_algebra(args):
    if args.ultra:
        return ultra_poisson_of_lie(sl2())
    matrix = load_json(args.heis_matrix, "--heis-matrix")
    if (not isinstance(matrix, list) or not matrix
            or any(not isinstance(row, list) or len(row) != len(matrix) for row in matrix)):
        raise ConfigError("--heis-matrix must be a nonempty square matrix")
    names = tuple(f"u{i+1}" for i in range(len(matrix)))
    return constant_order_table(names, [[exact(c) for c in row] for row in matrix])


def cmd_vp_check(args) -> int:
    algebra = _vp_algebra(args)
    report = Report("vp-check", _echo_config(args), args.seed, args.timing)
    report.run("vp.table-skew", algebra.check_table_skew)

    def leibniz():
        rng = random.Random(report.seed)
        problems = []
        n = len(algebra.names)
        for t in range(10):
            a = DPoly.variable(rng.randrange(n), rng.randint(0, 1))
            b = DPoly.variable(rng.randrange(n), rng.randint(0, 1))
            c = DPoly.variable(rng.randrange(n), rng.randint(0, 1))
            lhs = algebra.vp_bracket(a, b * c)
            rhs = algebra.vp_bracket(a, b).times(c) + algebra.vp_bracket(a, c).times(b)
            if lhs != rhs:
                problems.append(f"Leibniz fails on sample {t}")
        return problems

    report.run("vp.leibniz", leibniz)
    report.emit(args.format)
    return 0 if report.all_pass else 1


def cmd_pvpa(args) -> int:
    algebra = _vp_algebra(args)
    _print_presentation(pvpa_quotient(algebra), args.format)
    return 0


def cmd_lattice(args) -> int:
    lattice = parse_lattice(args.gram)
    if args.action == "c2-set":
        if not lattice.is_positive_definite():
            raise ConfigError("the survivor set needs a positive definite lattice")
        c2 = enumerate_c2(lattice)
        if args.format == "json":
            print(json.dumps({"c2": [list(v) for v in c2]}))
        else:
            print(" ".join("(" + ",".join(str(x) for x in v) + ")" for v in c2))
        return 0
    if args.action == "bk-compare":
        report = bk_compare(args.k)
        payload = {
            "k": report["k"],
            "dim": report["dim_lattice"],
            "isomorphic": not report["problems"],
            "problems": report["problems"],
        }
        print(json.dumps(payload, indent=2, sort_keys=True) if args.format == "json"
              else ("isomorphic, dim " + str(payload["dim"]) if payload["isomorphic"]
                    else "MISMATCH: " + "; ".join(report["problems"])))
        return 0 if payload["isomorphic"] else 1
    # p2 / poisson
    info = detect_indefinite(lattice)
    if info["zero_algebra"]:
        payload = {"dim": 0, "zero_algebra": True, "witness": info["witness"]}
        print(json.dumps(payload, indent=2, sort_keys=True) if args.format == "json"
              else "zero algebra (not positive definite)")
        return 0
    alg = build_pl_algebra(lattice)
    problems = alg.verify_axioms() if args.action == "poisson" else []
    if args.format == "json":
        payload = {
            "c2": [list(v) for v in alg.c2],
            "dim": alg.dim,
            "basis": [alg.format_key(key) for key in alg.basis],
            "cocycle": "upper-triangular bimultiplicative gauge",
            "zero_algebra": False,
        }
        if args.action == "poisson":
            payload["axioms_pass"] = not problems
            payload["bracket_table"] = {
                f"{i},{j}": alg.format_element(alg.bracket_table()[(i, j)])
                for i in range(alg.dim) for j in range(alg.dim)
                if alg.bracket_table()[(i, j)]
            }
        else:
            payload["mult_table"] = {
                f"{i},{j}": alg.format_element(alg.multiplication_table()[(i, j)])
                for i in range(alg.dim) for j in range(alg.dim) if i <= j
                and alg.multiplication_table()[(i, j)]
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"survivors: {len(alg.c2)}; dim {alg.dim}")
        print("basis: " + ", ".join(alg.format_key(key) for key in alg.basis))
        if args.action == "poisson":
            print("axioms: " + ("pass" if not problems else "FAIL: " + problems[0]))
    return 0 if not problems else 1


def cmd_decompose(args) -> int:
    data = load_json(args.series, "series")
    terms = []
    try:
        for item in data:
            coeffs = {integer(e): exact(c) for e, c in item["coeff"].items()}
            terms.append((integer(item["order"]), LaurentPoly("y", coeffs)))
        series = DeltaSeries(terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad series spec: {exc}") from None
    k = args.k if args.k is not None else series.max_order()
    win = render(series, BiSeriesWindow.square(max(oracle_radius(series), k + 2)))
    recovered = decompose(win, k)
    ok = recovered == series
    if args.format == "json":
        payload = {
            "round_trip": ok,
            "terms": [
                {"order": o, "coeff": {str(e): rat_str(c) for e, c in p.coeffs.items()}}
                for o, p in recovered.terms
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(repr(recovered))
        print("round trip: " + ("exact" if ok else "MISMATCH"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _nonnegative(text: str) -> int:
    value = integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _command(sub, name: str, fn, summary: str, report: bool = False):
    """A subcommand with --format, plus --seed and --timing when it emits a
    ``Report``."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--format", choices=("text", "json"), default="text")
    if report:
        p.add_argument("--seed", type=integer, default=0)
        p.add_argument("--timing", action="store_true",
                       help="attach timings (breaks byte-identical output)")
    p.set_defaults(fn=fn)
    return p


def _builder_flags(p, required: bool = True, lam: bool = True):
    """--builder with its --config file and, where read, --lambda."""
    p.add_argument("--builder", required=required)
    p.add_argument("--config", help="JSON/TOML structure file")
    if lam:
        p.add_argument("--lambda", dest="lam", action="append", default=[],
                       help="central character entries name=value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlie",
        description="Exact calculus of delta series, vertex Lie structures, "
                    "vacuum modules and their Poisson quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "check", cmd_check, "run a verification suite", report=True)
    p.add_argument("suite", choices=("delta", "vla", "vacuum", "p2", "lattice", "all"))
    _builder_flags(p, required=False)
    p.add_argument("--window", type=_nonnegative, default=4)
    p.add_argument("--depth", type=_nonnegative, default=4)
    p.add_argument("--samples", type=_nonnegative, default=40)
    p.add_argument("--gram")

    p = _command(sub, "bracket", cmd_bracket, "component bracket of two basis modes")
    _builder_flags(p, lam=False)
    p.add_argument("--a", required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=integer, required=True)

    p = _command(sub, "character", cmd_character, "graded dimensions of a vacuum module")
    _builder_flags(p)
    p.add_argument("--depth", type=_nonnegative, default=10)

    p = _command(sub, "act", cmd_act, "apply a mode to a state")
    _builder_flags(p)
    p.add_argument("--mode", required=True, help="name:n")
    p.add_argument("--state", required=True, help="JSON state")

    p = _command(sub, "borcherds-check", cmd_borcherds, "commutator identity on a window",
                 report=True)
    _builder_flags(p)
    p.add_argument("--a", help="JSON state (default: first generator)")
    p.add_argument("--b", help="JSON state (default: last generator)")
    p.add_argument("--window", type=_nonnegative, default=2)
    p.add_argument("--depth", type=_nonnegative, default=4)

    _builder_flags(_command(sub, "p2", cmd_p2, "Poisson presentation of the quotient"))

    for name, fn, summary in (("vp-check", cmd_vp_check, "table skew and Leibniz suites"),
                              ("pvpa", cmd_pvpa, "quotient presentation by derivative monomials")):
        p = _command(sub, name, fn, summary, report=fn is cmd_vp_check)
        table = p.add_mutually_exclusive_group(required=True)
        table.add_argument("--ultra", choices=("sl2",), help="bundled symmetric-algebra table")
        table.add_argument("--heis-matrix", help="constant order-1 table matrix (JSON)")

    p = _command(sub, "lattice", cmd_lattice, "lattice quotient algebras")
    p.add_argument("action", choices=("c2-set", "p2", "poisson", "bk-compare"))
    p.add_argument("--gram", required=False, default="[[2]]")
    p.add_argument("--k", type=_positive, default=1)

    p = _command(sub, "decompose", cmd_decompose, "expand and re-extract a delta series")
    p.add_argument("--series", required=True,
                   help='JSON like [{"order":0,"coeff":{"1":"1"}}]')
    p.add_argument("--k", type=_nonnegative)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # built on the first request and reused: a request's parse leaves no
    # state in the parser, and building it is a share of a short request
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UngradedError:
        # named by the request, not by the module operation that refused it
        request = f"check {args.suite}" if args.command == "check" else args.command
        print(f"config error: {request} {UngradedError.reason}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
