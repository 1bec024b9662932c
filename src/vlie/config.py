"""Configuration loading: named builders plus JSON/TOML structure tables.

All numbers in config files are exact: integers or fraction strings like
"-1/12" (an optional sign, ASCII digits, and optionally "/" and a nonzero
denominator).  Floats and any other string are rejected.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .formal_calc import rat, rat_str
from .lattice_c2 import EvenLattice
from .lie_core import BilinearForm, FiniteLieAlgebra, sl2, sl2_form
from .vertex_lie import CommAlgebra, VLStructure, affine, heisenberg, loop, novikov, virasoro, witt


class ConfigError(ValueError):
    """Malformed configuration input (maps to exit code 2)."""


# a sign, ASCII digits, and optionally "/" and ASCII digits of nonzero value
_NUMBER = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def exact(value) -> Fraction:
    if isinstance(value, float):
        raise ConfigError(f"floating point is not accepted: {value!r}")
    if isinstance(value, bool):
        raise ConfigError(f"a boolean is not a number: {value!r}")
    if isinstance(value, str) and not _NUMBER.fullmatch(value):
        raise ConfigError(f"Invalid literal for Fraction: {value!r}")
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def integer(value) -> int:
    """An int or an integer string: never a float, a boolean or a fraction."""
    number = exact(value)
    if number.__class__ is not int:
        raise ConfigError(f"not an integer: {value!r}")
    return number


def load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    if p.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - depends on interpreter
            raise ConfigError("TOML configs need Python 3.11+; use JSON here")
        try:
            return tomllib.loads(text)
        except Exception as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}") from None
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from None


def _reject_float(text):
    raise ConfigError(f"floating point is not accepted: {text}")


def load_json(text: str, what: str):
    """JSON input given on the command line, with no float anywhere in it."""
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad {what} JSON: {exc.msg}") from None


def lie_algebra_from_config(data: dict) -> tuple[FiniteLieAlgebra, BilinearForm | None]:
    try:
        names = tuple(data["basis"])
        if not names:
            raise ConfigError("bad lie_algebra config: the basis is empty")
        table = {}
        for a, b, entries in data.get("brackets", []):
            table[(a, b)] = {k: exact(c) for k, c in entries}
        algebra = FiniteLieAlgebra(names, table)
        form = None
        if "form" in data:
            form = BilinearForm([[exact(x) for x in row] for row in data["form"]])
        return algebra, form
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad lie_algebra config: {exc}") from None


def vertex_lie_from_config(data: dict) -> VLStructure:
    try:
        for key in ("u_prime", "u0_prime"):
            if key in data:
                raise ConfigError(
                    f"{key!r} is not accepted; complements are the lowest-index pivot")
        basis = []
        degrees = []
        graded = True
        for item in data["basis"]:
            if isinstance(item, str):
                basis.append(item)
                graded = False
            else:
                basis.append(item["name"])
                if "degree" in item:
                    degrees.append(integer(item["degree"]))
                else:
                    graded = False
        d_cfg = data.get("d", {})
        domain = tuple(d_cfg.get("domain", ()))
        matrix = d_cfg.get("matrix")
        d_map = {}
        if matrix is not None:
            if len(matrix) != len(domain):
                raise ConfigError(
                    f"d.matrix has {len(matrix)} rows for {len(domain)} domain names"
                )
            for row, name in zip(matrix, domain):
                if len(row) != len(basis):
                    raise ConfigError(
                        f"d.matrix row of {name!r} has {len(row)} entries for "
                        f"{len(basis)} basis names"
                    )
                d_map[name] = {basis[i]: exact(c) for i, c in enumerate(row) if exact(c)}
        table = {}
        for entry in data.get("brackets", []):
            terms = []
            for term in entry.get("terms", []):
                f = {name: exact(c) for name, c in term["f"]}
                terms.append((f, integer(term.get("k", 0)), integer(term.get("l", 0))))
            table[(entry["a"], entry["b"])] = terms
        structure = VLStructure(
            basis=basis,
            degrees=degrees if graded and degrees else None,
            d_domain=domain,
            d_matrix=d_map,
            table=table,
            name=data.get("name", "config"),
        )
        if "u0" in data:
            declared = tuple(data["u0"])
            computed = structure.u0_names
            if declared != computed:
                raise ConfigError(
                    f"declared u0 {declared} does not match ker d {computed}"
                )
        return structure.certify()
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad vertex_lie config: {exc}") from None


def parse_lattice(text: str) -> EvenLattice:
    """An even lattice from a Gram matrix whose entries are JSON integers,
    never a boolean or a string."""
    gram = load_json(text, "Gram matrix")
    if not isinstance(gram, list):
        raise ConfigError("Gram matrix must be a JSON list of rows")
    for row in gram:
        for x in row if isinstance(row, list) else ():
            if x.__class__ is not int:
                raise ConfigError(f"bad Gram matrix: entry {x!r} is not an integer")
    try:
        lattice = EvenLattice(gram)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad Gram matrix: {exc}") from None
    if lattice.is_degenerate():
        raise ConfigError("degenerate Gram matrix is out of scope")
    return lattice


def parse_lambda(pairs: list[str]) -> dict[str, Fraction]:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"central character entries look like name=value: {pair!r}")
        name, _, value = pair.partition("=")
        out[name.strip()] = exact(value)
    return out


def parse_state_json(module, text: str):
    """States as [[[[name, n], ...], coeff], ...]."""
    data = load_json(text, "state")
    try:
        return module.state(
            [([(name, integer(n)) for name, n in mono], exact(coeff))
             for mono, coeff in data]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad state: {exc}") from None


def state_to_json(module, state) -> list:
    out = []
    for mono in sorted(state):
        coeff = state[mono]
        syms = [[module.structure.symbol_name(s), s[0]] for s in mono]
        out.append([syms, rat_str(coeff)])
    return out


_DUAL_NUMBERS = None


def _dual_numbers() -> CommAlgebra:
    global _DUAL_NUMBERS
    if _DUAL_NUMBERS is None:
        _DUAL_NUMBERS = CommAlgebra(
            ("one", "eps"),
            {("one", "one"): {"one": 1}, ("one", "eps"): {"eps": 1},
             ("eps", "one"): {"eps": 1}, ("eps", "eps"): {}},
        )
    return _DUAL_NUMBERS


def build_structure(name: str, config: dict | None = None) -> VLStructure:
    """Builders addressable by name, or 'config' backed by a loaded file."""
    key = name.lower()
    if key == "witt":
        return witt()
    if key == "virasoro":
        return virasoro()
    if key in ("loop-sl2", "loop_sl2"):
        return loop(sl2())
    if key in ("affine-sl2", "affine_sl2"):
        return affine(sl2(), sl2_form(), highest_root="e")
    if key.partition(":")[0] == "heisenberg":
        _, sep, rank = key.partition(":")
        if sep and not (rank.isascii() and rank.isdecimal() and int(rank) > 0):
            raise ConfigError(f"the heisenberg rank must be a positive integer: {rank!r}")
        r = int(rank) if sep else 1
        matrix = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        return heisenberg(matrix)
    if key in ("novikov-dual", "novikov_dual"):
        return novikov(_dual_numbers(), BilinearForm([[1, 1], [1, 0]]))
    if key == "config":
        if not config or "vertex_lie" not in config:
            raise ConfigError("builder 'config' needs --config with a vertex_lie table")
        return vertex_lie_from_config(config["vertex_lie"])
    if key in ("loop:config", "affine:config"):
        if not config or "lie_algebra" not in config:
            raise ConfigError(f"builder {name!r} needs --config with a lie_algebra table")
        algebra, form = lie_algebra_from_config(config["lie_algebra"])
        if key == "affine:config" and form is None:
            raise ConfigError("the affinization needs a 'form' matrix in lie_algebra")
        try:
            return loop(algebra) if key == "loop:config" else affine(algebra, form)
        except ValueError as exc:
            raise ConfigError(f"bad lie_algebra config: {exc}") from None
    raise ConfigError(
        f"unknown builder {name!r}; available: witt, virasoro, loop-sl2, "
        "affine-sl2, heisenberg[:rank], novikov-dual, config, loop:config, "
        "affine:config"
    )
