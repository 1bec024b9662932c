"""The four workloads: seeded inputs, set-up, and verdict items with known answers.

Each workload is a closed loop with one client: ``items`` returns the
verdict requests in order, and the worker runs them one after another.
Inputs come only from the seed.  Every random choice is stratified (a fixed
number of draws from each cost class), so a new seed gives new inputs but
about the same amount of work, which keeps the metrics comparable between
seeds.

Known answers come from three places: facts that hold for every valid input
(a certified builder passes its window checks, a control built to fail
fails), oracles computed here without the package (partition counts,
associativity of a structure-constant table, lattice dimensions 2k+3), and
byte-identical CLI output recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Item:
    """One verdict request: ``run`` is timed, ``check`` returns None when
    the result is the known answer and a reason otherwise."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def expect_pass(problems) -> str | None:
    return None if problems == [] else f"expected a pass, got {str(problems[:1])[:200]}"


def expect_fail(problems) -> str | None:
    return None if problems else "expected the control to fail, but it passed"


# ---------------------------------------------------------------------------
# CLI requests and golden output
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``vlie`` request; returns (exit code, stdout)."""
    from vlie import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def request_key(argv: list[str]) -> str:
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]


def output_digest(code: int, stdout: str) -> str:
    return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()[:16]}"


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def golden_check(golden: dict[str, str], argv: list[str], extra=None):
    """Check against the recorded output, then against an oracle if given."""
    want = golden.get(request_key(argv))

    def check(result):
        code, stdout = result
        if want is None:
            return f"no golden output recorded for {argv}"
        got = output_digest(code, stdout)
        if got != want:
            return f"output {got} differs from golden {want} for {argv}"
        return extra(result) if extra else None

    return check


def lines_check(code_want: int, *expected):
    """Exit code plus the output lines: exact strings or line predicates."""

    def check(result):
        code, stdout = result
        if code != code_want:
            return f"exit code {code}, expected {code_want}"
        lines = stdout.splitlines()
        if len(lines) != len(expected):
            return f"expected {len(expected)} lines, got {stdout[:200]!r}"
        for got, want in zip(lines, expected):
            if callable(want):
                if not want(got):
                    return f"unexpected line {got!r}"
            elif got != want:
                return f"line {got!r}, expected {want!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def partition_counts(weights_per_generator: list[int], depth: int) -> list[int]:
    """Coefficients of prod_g prod_{n>=0} 1/(1 - q^(w_g + n)) up to q^depth."""
    counts = [1] + [0] * depth
    for w0 in weights_per_generator:
        for w in range(max(w0, 1), depth + 1):
            for d in range(w, depth + 1):
                counts[d] += counts[d - w]
    return counts


# degree of each creation generator of the named builders
CREATOR_DEGREES = {
    "witt": [2],
    "virasoro": [2],
    "loop-sl2": [1, 1, 1],
    "affine-sl2": [1, 1, 1],
    "heisenberg:2": [1, 1],
    "novikov-dual": [2, 2],
}

VIRASORO_CHARACTER_10 = [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]

Table = dict[tuple[int, int], dict[int, Fraction]]


def _table_mul(table: Table, u: dict[int, Fraction], v: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, Fraction(0)) + a * b * c
    return {k: c for k, c in out.items() if c}


def table_is_comm_assoc(table: Table, n: int) -> bool:
    for i in range(n):
        for j in range(n):
            if table.get((i, j), {}) != table.get((j, i), {}):
                return False
            for k in range(n):
                left = _table_mul(table, table.get((i, j), {}), {k: Fraction(1)})
                right = _table_mul(table, {i: Fraction(1)}, table.get((j, k), {}))
                if left != right:
                    return False
    return True


def table_cube_zero(table: Table, n: int) -> bool:
    return all(
        not _table_mul(table, table.get((i, j), {}), {k: Fraction(1)})
        for i in range(n) for j in range(n) for k in range(n)
    )


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _inverse(m: list[list[int]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def change_basis(table: Table, n: int, rng: random.Random) -> Table:
    """Structure constants in a random dense basis b'_i = sum_a P_ia b_a."""
    while True:
        p = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
        if _det(p):
            break
    q = _inverse(p)
    out: Table = {}
    for i in range(n):
        for j in range(n):
            acc = [Fraction(0)] * n
            for (a, b), prod in table.items():
                w = p[i][a] * p[j][b]
                if not w:
                    continue
                for k, c in prod.items():
                    for l in range(n):
                        acc[l] += w * c * q[k][l]
            out[(i, j)] = {l: v for l, v in enumerate(acc) if v}
    return out


# two-dimensional commutative associative templates
DUAL_NUMBERS = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}, (1, 0): {1: Fraction(1)}}
SPLIT = {(0, 0): {0: Fraction(1)}, (1, 1): {1: Fraction(1)}}
SQUARE_TO_SECOND = {(0, 0): {1: Fraction(1)}}  # u1^2 = u2, so B^3 = 0
UNITAL_1D = {(0, 0): {0: Fraction(1)}}


def comm_algebra(table: Table, n: int, check: bool = True):
    from vlie.vertex_lie import CommAlgebra

    names = tuple(f"u{i + 1}" for i in range(n))
    return CommAlgebra(
        names,
        {(names[i], names[j]): {names[k]: c for k, c in prod.items()}
         for (i, j), prod in table.items()},
        check=check,
    )


# ---------------------------------------------------------------------------
# vla-windows
# ---------------------------------------------------------------------------

VLA_BUILDERS = ("witt", "virasoro", "loop-sl2", "affine-sl2", "heisenberg:2", "novikov-dual")


def vla_generate(seed, size: str) -> dict:
    """The seed picks the bases of the swept algebras, not their templates,
    so every seed checks algebras of the same kind and about the same cost."""
    rng = random.Random(seed)
    b3 = [change_basis(t, 2, rng) for t in (SQUARE_TO_SECOND, DUAL_NUMBERS, SPLIT)]
    nov_pass = change_basis(DUAL_NUMBERS, 2, rng)
    while True:
        bad = change_basis(DUAL_NUMBERS, 2, rng)
        i, j, k = rng.randrange(2), rng.randrange(2), rng.randrange(2)
        bump = Fraction(rng.choice((-2, -1, 1, 2)))
        for key in {(i, j), (j, i)}:
            bad[key] = dict(bad[key])
            bad[key][k] = bad[key].get(k, Fraction(0)) + bump
            bad[key] = {kk: c for kk, c in bad[key].items() if c}
        if not table_is_comm_assoc(bad, 2):
            break
    return {
        "builders": VLA_BUILDERS if size == "full" else VLA_BUILDERS[:2],
        "window": 4 if size == "full" else 2,
        "control_window": 3 if size == "full" else 2,
        "sweep_window": 2,
        "b3": [(t, table_cube_zero(t, 2)) for t in b3],
        "novikov_pass": nov_pass,
        "novikov_bad": bad,
    }


def vla_setup(inp: dict) -> dict:
    from vlie.config import build_structure
    from vlie.vertex_lie import novikov, novikov_candidate, quadratic_central_candidate

    # the negative controls of the vla suite and of the base-algebra criteria
    bad_loop = comm_algebra({(0, 0): {1: Fraction(1)}, (1, 1): {0: Fraction(1)}}, 2, check=False)
    non_comm = comm_algebra({(0, 1): {0: Fraction(1)}}, 2, check=False)
    return {
        "structures": [(name, build_structure(name)) for name in inp["builders"]],
        "bad_loop": novikov_candidate(bad_loop),
        "nonzero_cube": quadratic_central_candidate(comm_algebra(UNITAL_1D, 1)),
        "non_comm": novikov_candidate(non_comm),
        "novikov_pass": novikov(comm_algebra(inp["novikov_pass"], 2)),
        "novikov_bad": novikov_candidate(comm_algebra(inp["novikov_bad"], 2, check=False)),
    }


def _b3_check(expect_cube_zero: bool):
    def check(rep):
        if rep["cube_zero"] != expect_cube_zero or rep["jacobi_pass"] != expect_cube_zero:
            return f"b3 verdict {rep['jacobi_pass']}/{rep['cube_zero']}, expected {expect_cube_zero}"
        return None if rep["agree"] else "b3 verdicts disagree"
    return check


def vla_items(inp: dict, built: dict, golden) -> list[Item]:
    from vlie.vertex_lie import b3_criterion

    w, cw, sw = inp["window"], inp["control_window"], inp["sweep_window"]
    items = []
    for name, s in built["structures"]:
        items.append(Item(f"skew.{name}", lambda s=s: s.verify_skew_symmetry(w), expect_pass))
        items.append(Item(f"jacobi.{name}", lambda s=s: s.verify_jacobi(w), expect_pass))
    items.append(Item("control.bad-loop",
                      lambda: built["bad_loop"].verify_jacobi(cw, ordered=True), expect_fail))
    items.append(Item("control.nonzero-cube",
                      lambda: built["nonzero_cube"].verify_jacobi(cw, ordered=True), expect_fail))
    items.append(Item("control.non-commutative",
                      lambda: built["non_comm"].verify_skew_symmetry(cw), expect_fail))
    for label, table, n in (("unital", UNITAL_1D, 1), ("dual-numbers", DUAL_NUMBERS, 2)):
        items.append(Item(f"b3.{label}",
                          lambda t=table, n=n: b3_criterion(comm_algebra(t, n), window=cw),
                          _b3_check(False)))
    for t, (table, cube_zero) in enumerate(inp["b3"]):
        items.append(Item(f"b3.sweep{t}",
                          lambda table=table: b3_criterion(comm_algebra(table, 2), window=sw),
                          _b3_check(cube_zero)))
    items.append(Item("novikov.sweep", lambda: built["novikov_pass"].verify_jacobi(sw), expect_pass))
    items.append(Item("novikov.candidate",
                      lambda: built["novikov_bad"].verify_jacobi(sw, ordered=True), expect_fail))
    return items


# ---------------------------------------------------------------------------
# vacuum-borcherds
# ---------------------------------------------------------------------------

def vac_generate(seed, size: str) -> dict:
    """The central charges are fixed (c = 1/2 and level 1); the seed picks
    the states that verify_p2_iso samples."""
    rng = random.Random(seed)
    full = size == "full"
    return {
        "vir_c": "1/2",
        "aff_c": "1",
        "window": 3 if full else 1,
        "degree": 5 if full else 2,
        "samples": 120 if full else 2,
        "p2_seeds": [rng.randrange(10**6) for _ in range(4)],
    }


def vac_setup(inp: dict) -> dict:
    from vlie.config import build_structure
    from vlie.poisson_c2 import PoissonPresentation, p2_structure
    from vlie.vacuum_module import VacuumModule

    vir = build_structure("virasoro")
    aff = build_structure("affine-sl2")
    loop = build_structure("loop-sl2")
    vir_lam = {"c": Fraction(inp["vir_c"])}
    aff_lam = {"c": Fraction(inp["aff_c"])}
    vir_mod = VacuumModule(vir, vir_lam)
    aff_mod = VacuumModule(aff, aff_lam)
    right = p2_structure(aff, aff_lam)
    gens = right.generators
    wrong = PoissonPresentation(
        gens, {(gens[i], gens[j]): -v for (i, j), v in right.table.items()},
        right.ideal, right.notes,
    )
    return {"vir": vir, "aff": aff, "loop": loop, "vir_lam": vir_lam, "aff_lam": aff_lam,
            "vir_mod": vir_mod, "aff_mod": aff_mod, "wrong": wrong}


def vac_items(inp: dict, b: dict, golden) -> list[Item]:
    from vlie.poisson_c2 import verify_p2_iso

    w, d, n = inp["window"], inp["degree"], inp["samples"]
    s = inp["p2_seeds"]
    vir_mod, aff_mod = b["vir_mod"], b["aff_mod"]
    omega = vir_mod.generator_state("omega")
    e, f = aff_mod.generator_state("e"), aff_mod.generator_state("f")
    return [
        Item("borcherds.virasoro", lambda: vir_mod.borcherds_check(omega, omega, w, d), expect_pass),
        Item("borcherds.affine-sl2", lambda: aff_mod.borcherds_check(e, f, w, d), expect_pass),
        Item("p2-iso.virasoro",
             lambda: verify_p2_iso(b["vir"], b["vir_lam"], samples=n, seed=s[0]), expect_pass),
        Item("p2-iso.affine-sl2",
             lambda: verify_p2_iso(b["aff"], b["aff_lam"], samples=n, seed=s[1]), expect_pass),
        Item("p2-iso.loop-sl2",
             lambda: verify_p2_iso(b["loop"], {}, samples=n, seed=s[2]), expect_pass),
        Item("control.wrong-presentation",
             lambda: verify_p2_iso(b["aff"], b["aff_lam"], samples=n, seed=s[3],
                                   presentation=b["wrong"]), expect_fail),
        Item("character.virasoro", lambda: vir_mod.character(10),
             lambda got: None if got == VIRASORO_CHARACTER_10 else f"character {got}"),
    ]


# ---------------------------------------------------------------------------
# lattice-poisson
# ---------------------------------------------------------------------------

A2 = [[2, -1], [-1, 2]]
A1A1 = [[2, 0], [0, 2]]
# positive definite even rank-2 Grams with their algebra dimension, including
# isometric copies in other bases; recorded at the commit that added the
# benchmark and cross-checked by the golden output
RANK2_BY_DIM = {
    19: [[[2, -1], [-1, 2]], [[2, 1], [1, 2]]],
    25: [[[2, 0], [0, 2]], [[2, 2], [2, 4]], [[2, -2], [-2, 4]]],
    29: [[[2, 1], [1, 4]], [[2, -1], [-1, 4]], [[4, 1], [1, 2]], [[4, -1], [-1, 2]]],
    35: [[[2, 0], [0, 4]], [[2, 2], [2, 6]], [[2, -2], [-2, 6]], [[4, 4], [4, 6]]],
    37: [[[4, 2], [2, 4]], [[4, -2], [-2, 4]]],
}
RANK2_SURVIVORS = {19: 7, 25: 9, 29: 7}


def gram_text(g) -> str:
    return json.dumps(g, separators=(",", ":"))


def lattice_pool() -> list[list[str]]:
    grams = [[[2 * k]] for k in range(1, 8)] + [A2, A1A1] + RANK2_BY_DIM[29]
    return [["lattice", "poisson", "--gram", gram_text(g)] for g in grams]


def _indefinite_gram(rng: random.Random):
    if rng.random() < 0.5:
        return [[-2 * rng.randint(1, 4)]]
    while True:
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        b = rng.randint(-4, 4)
        det = 4 * a * c - b * b
        if det < 0 or (det > 0 and a < 0):
            return [[2 * a, b], [b, 2 * c]]


def lat_generate(seed, size: str) -> dict:
    """A2, A1+A1 and the rank-1 Grams of dimension 5, 7, 15 and 17 in every
    run; the seed draws a dimension-29 Gram among isometric bases (of equal
    cost within the noise), two indefinite Grams and the order, so every
    seed does about the same work.  A rank-1 Gram has one basis, so drawing among
    them would draw the cost too."""
    rng = random.Random(seed)
    reqs = []  # (argv, kind, expected dimension)
    if size == "full":
        rank2 = [(A2, 19), (A1A1, 25), (rng.choice(RANK2_BY_DIM[29]), 29)]
        rank1 = [1, 2, 6, 7]
        bk = [1, 2, 3, 4]
    else:
        rank2, rank1, bk = [(A2, 19)], [rng.randint(1, 4)], [1]
    for g, dim in rank2:
        reqs.append((["lattice", "poisson", "--gram", gram_text(g)], "rank2", dim))
    for k in rank1:
        reqs.append((["lattice", "poisson", "--gram", gram_text([[2 * k]])], "rank1", 2 * k + 3))
    for k in bk:
        reqs.append((["lattice", "bk-compare", "--k", str(k)], "bk", 2 * k + 3))
    for _ in range(2):
        reqs.append((["lattice", "poisson", "--gram", gram_text(_indefinite_gram(rng))], "zero", 0))
    rng.shuffle(reqs)
    return {"requests": reqs}


def _lattice_oracle(kind: str, dim: int):
    if kind == "zero":
        return lines_check(0, "zero algebra (not positive definite)")
    if kind == "bk":
        return lines_check(0, f"isomorphic, dim {dim}")
    survivors = 3 if kind == "rank1" else RANK2_SURVIVORS[dim]
    return lines_check(0, f"survivors: {survivors}; dim {dim}",
                       lambda line: line.startswith("basis: "), "axioms: pass")


def lat_items(inp: dict, built: dict, golden) -> list[Item]:
    items = []
    for argv, kind, dim in inp["requests"]:
        oracle = _lattice_oracle(kind, dim)
        check = oracle if kind in ("zero", "bk") else golden_check(golden, argv, oracle)
        items.append(Item(" ".join(argv), lambda argv=argv: run_cli(argv), check))
    return items


# ---------------------------------------------------------------------------
# query-stream
# ---------------------------------------------------------------------------

# the six named builders; a builder request draws one of them
QS_BUILDERS = VLA_BUILDERS
BUILDER_BASIS = {
    "witt": ("omega",),
    "virasoro": ("omega", "c"),
    "loop-sl2": ("e", "h", "f"),
    "affine-sl2": ("e", "h", "f", "c"),
    "heisenberg:2": ("u1", "u2", "c"),
    "novikov-dual": ("one", "eps", "c"),
}
CENTRAL_C = ("1/2", "1", "2", "3", "7/10", "-1", "2/3", "25")
SYM_2X2 = [[[a, b], [b, c]] for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]

# The request kinds of the stream: the CLI commands that take a builder, and
# the ones that do not.  Every kind has the same weight.
BUILDER_COMMANDS = ("bracket", "character", "act", "borcherds-check", "p2")
OTHER_COMMANDS = ("vp-check", "pvpa", "lattice c2-set", "lattice p2", "lattice bk-compare",
                  "decompose")
# Parameters that set the size of a request, one value per block of a pass;
# every other parameter is drawn uniformly from its pool.
SIZED_REQUESTS = {
    "lattice p2": [["lattice", "p2", "--gram", gram_text(g)]
                   for g in ([[2]], [[4]], [[6]], [[8]], [[10]], A2)],
    "lattice bk-compare": [["lattice", "bk-compare", "--k", str(k)] for k in (1, 2, 3) * 2],
}
QS_BORCHERDS_SIZE = ("--window", "2", "--depth", "2")


def _lam(builder: str, c: str) -> list[str]:
    return ["--lambda", f"c={c}"] if "c" in BUILDER_BASIS[builder] else []


def _generators(builder: str) -> tuple[str, ...]:
    return tuple(x for x in BUILDER_BASIS[builder] if x != "c")


def _states(builder: str) -> list[str]:
    g = _generators(builder)
    a, b = g[0], g[-1]
    return [
        '[[[],"1"]]',
        f'[[[["{a}",-1]],"1"]]',
        f'[[[["{b}",-2]],"1/2"]]',
        f'[[[["{a}",-1],["{b}",-1]],"2"],[[],"-3"]]',
    ]


def query_pools() -> dict[str, list[list[str]]]:
    """Every request with a recorded golden output, by kind (and builder)."""
    modes = range(-2, 3)
    pools: dict[str, list[list[str]]] = {}
    for builder, basis in BUILDER_BASIS.items():
        cs = CENTRAL_C if "c" in basis else CENTRAL_C[:1]
        pools[f"bracket:{builder}"] = [
            ["bracket", "--builder", builder, "--a", a, "--m", str(m), "--b", b, "--n", str(n)]
            for a in basis for b in basis for m in modes for n in modes]
        pools[f"act:{builder}"] = [
            ["act", "--builder", builder, *_lam(builder, c), "--mode", f"{x}:{n}", "--state", s]
            for c in cs[:3] for x in _generators(builder) for n in range(-2, 3)
            for s in _states(builder)]
        pools[f"p2:{builder}"] = [["p2", "--builder", builder, *_lam(builder, c)] for c in cs]
    pools["vp-check"] = [["vp-check", "--ultra", "sl2"]] + [
        ["vp-check", "--heis-matrix", gram_text(m)] for m in SYM_2X2]
    pools["pvpa"] = [["pvpa", "--ultra", "sl2"]] + [
        ["pvpa", "--heis-matrix", gram_text(m)] for m in SYM_2X2]
    pools["lattice c2-set"] = [["lattice", "c2-set", "--gram", gram_text(g)]
                               for d in sorted(RANK2_BY_DIM) for g in RANK2_BY_DIM[d]]
    return pools


def _decompose_request(rng: random.Random) -> list[str]:
    terms = []
    for order in sorted(rng.sample(range(5), rng.randint(1, 3))):
        coeff = {}
        for e in rng.sample(range(-3, 4), rng.randint(1, 3)):
            num = rng.choice([x for x in range(-6, 7) if x])
            coeff[str(e)] = str(Fraction(num, rng.randint(1, 4)))
        terms.append({"order": order, "coeff": coeff})
    return ["decompose", "--series", json.dumps(terms, separators=(",", ":"))]


def _builder_request(rng: random.Random, pools, command: str, builder: str):
    """One request of a builder command: (argv, check spec)."""
    c = rng.choice(CENTRAL_C)
    if command == "character":
        depth = rng.randint(6, 12)
        argv = ["character", "--builder", builder, *_lam(builder, c), "--depth", str(depth)]
        return argv, ("character", builder, depth)
    if command == "borcherds-check":
        argv = ["borcherds-check", "--builder", builder, *_lam(builder, c), *QS_BORCHERDS_SIZE]
        return argv, ("borcherds",)
    return rng.choice(pools[f"{command}:{builder}"]), ("golden",)


def _character_check(builder: str, depth: int):
    want = partition_counts(CREATOR_DEGREES[builder], depth)
    return lines_check(0, ",".join(str(v) for v in want))


BORCHERDS_PASS = lines_check(0, "PASS borcherds", "1/1 checks passed")
DECOMPOSE_EXACT = lines_check(0, lambda line: bool(line), "round trip: exact")


def qs_generate(seed, size: str) -> dict:
    """A uniform mix over the request kinds: each block of the stream holds
    one request of every kind, in seeded order.  A pass has six blocks, and
    the parameters that set a request's size are stratified over them: each
    builder command meets each named builder once, and each sized lattice
    request comes once, in seeded order.  So every pass holds the same mix,
    and the seed draws the other parameters uniformly from their pools."""
    rng = random.Random(seed)
    pools = query_pools()
    blocks = len(QS_BUILDERS) if size == "full" else 1
    order = {cmd: rng.sample(QS_BUILDERS, len(QS_BUILDERS)) for cmd in BUILDER_COMMANDS}
    sized = {cmd: rng.sample(reqs, len(reqs)) for cmd, reqs in SIZED_REQUESTS.items()}
    reqs = []  # (argv, check spec)
    for i in range(blocks):
        block = [_builder_request(rng, pools, cmd, order[cmd][i]) for cmd in BUILDER_COMMANDS]
        for cmd in OTHER_COMMANDS:
            if cmd == "decompose":
                block.append((_decompose_request(rng), ("decompose",)))
            elif cmd in sized:
                block.append((sized[cmd][i], ("golden",)))
            else:
                block.append((rng.choice(pools[cmd]), ("golden",)))
        rng.shuffle(block)
        reqs.extend(block)
    return {"requests": reqs}


def qs_items(inp: dict, built: dict, golden) -> list[Item]:
    items = []
    for argv, spec in inp["requests"]:
        kind = spec[0]
        if kind == "golden":
            check = golden_check(golden, argv)
        elif kind == "character":
            check = _character_check(spec[1], spec[2])
        elif kind == "borcherds":
            check = BORCHERDS_PASS
        else:
            check = DECOMPOSE_EXACT
        items.append(Item(" ".join(argv[:3]), lambda argv=argv: run_cli(argv), check))
    return items


# ---------------------------------------------------------------------------

def cli_setup(inp: dict) -> dict:
    """Nothing beyond the imports: every CLI request builds its own input."""
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[object, str], dict]
    setup: Callable[[dict], dict]
    items: Callable[[dict, dict, dict], list[Item]]
    # a stream draws new requests in every pass; the others repeat theirs
    stream: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("vla-windows", vla_generate, vla_setup, vla_items),
        Workload("vacuum-borcherds", vac_generate, vac_setup, vac_items),
        Workload("lattice-poisson", lat_generate, cli_setup, lat_items),
        Workload("query-stream", qs_generate, cli_setup, qs_items, stream=True),
    )
}


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def golden_requests() -> list[list[str]]:
    """Every request whose output the golden file records."""
    out = lattice_pool()
    for pool in query_pools().values():
        out.extend(pool)
    for reqs in SIZED_REQUESTS.values():
        out.extend(reqs)
    return out

