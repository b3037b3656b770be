"""References for the benchmark's correctness checks, written apart from qfamily.

Nothing here imports qfamily.  The paper's ten statements are written out by
hand and read with a small parser of this module's own; the sweep columns are
checked against closed forms; rates are checked against entropies computed
here with a partial trace and `numpy.linalg.eigvalsh`.  Every check raises
`CheckFailed` on the first wrong value and returns None otherwise.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

TOLERANCE = 1e-9
PROTOCOL_FIDELITY = 1.0 - 1e-10


class CheckFailed(AssertionError):
    """A program output that disagrees with its reference."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Statements: coefficient vectors over (1, H(A), H(B), H(E))
# ---------------------------------------------------------------------------

# Purity of |psi>^ABE gives H(AB) = H(E) and H(AE) = H(B), so the paper's
# information quantities reduce to one-party entropies.
_SYMBOLS = {
    "H(A)": (0, 1, 0, 0),
    "H(B)": (0, 0, 1, 0),
    "H(E)": (0, 0, 0, 1),
    "I(A:B)": (0, 1, 1, -1),   # H(A) + H(B) - H(AB)
    "I(A:E)": (0, 1, -1, 1),   # H(A) + H(E) - H(AE)
    "Ic(A>B)": (0, 0, 1, -1),  # H(B) - H(AB)
}
_RESOURCES = ("[c->c]", "[q->q]", "[qq]", "[q->qq]", "{qq}", "{q->q}")
_NOISY = ("{qq}", "{q->q}")
_DUAL = {"[qq]": "[q->q]", "[q->q]": "[qq]", "{qq}": "{q->q}", "{q->q}": "{qq}"}
_GENERATORS = ("CONST", "H_A", "H_B", "H_E")
_TOKEN = re.compile(
    r"\s*(>=!|>=|\[c->c\]|\[q->qq\]|\[q->q\]|\[qq\]|\{qq\}|\{q->q\}"
    r"|H\([ABE]\)|I\(A:[BE]\)|Ic\(A>B\)|\d+(?:/\d+)?|[-+*()])"
)


class Statement(NamedTuple):
    mode: str   # "exact" (>=!) or "asymptotic" (>=)
    lhs: dict   # resource token -> tuple of four Fractions
    rhs: dict


_ZERO = (Fraction(0),) * 4


def _scaled(coeff, factor) -> tuple:
    return tuple(Fraction(c) * factor for c in coeff)


def _summed(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            match = _TOKEN.match(text, pos)
            require(match is not None, f"unreadable statement {text!r} at {pos}")
            self.tokens.append(match.group(1))
            pos = match.end()
        self.index = 0

    def peek(self) -> str:
        return self.tokens[self.index] if self.index < len(self.tokens) else ""

    def take(self) -> str:
        token = self.peek()
        require(token != "", f"statement {self.text!r} ends early")
        self.index += 1
        return token

    def coefficient(self) -> tuple:
        token = self.take()
        if token == "(":
            sign = -1 if self.peek() == "-" else 1
            if sign < 0:
                self.take()
            total = _ZERO
            while True:
                total = _summed(total, _scaled(self.coefficient(), sign))
                if self.peek() not in ("+", "-"):
                    break
                sign = 1 if self.take() == "+" else -1
            require(self.take() == ")", f"unbalanced '(' in {self.text!r}")
            return total
        if token in _SYMBOLS:
            return _scaled(_SYMBOLS[token], 1)
        require(token[0].isdigit(), f"expected a coefficient in {self.text!r}, got {token!r}")
        value = Fraction(token)
        if self.peek() == "*":
            self.take()
            symbol = self.take()
            require(symbol in _SYMBOLS, f"unknown symbol {symbol!r} in {self.text!r}")
            return _scaled(_SYMBOLS[symbol], value)
        return _scaled((1, 0, 0, 0), value)

    def vector(self) -> dict:
        terms: dict = {}
        while True:
            coeff = _scaled((1, 0, 0, 0), 1) if self.peek() in _RESOURCES else self.coefficient()
            token = self.take()
            require(token in _RESOURCES, f"expected a resource in {self.text!r}, got {token!r}")
            terms[token] = _summed(terms.get(token, _ZERO), coeff)
            if self.peek() != "+":
                return {kind: c for kind, c in terms.items() if any(c)}
            self.take()


def parse_statement(text: str) -> Statement:
    reader = _Reader(text)
    lhs = reader.vector()
    op = reader.take()
    require(op in (">=", ">=!"), f"expected '>=' or '>=!' in {text!r}")
    rhs = reader.vector()
    require(reader.peek() == "", f"trailing input in {text!r}")
    return Statement("exact" if op == ">=!" else "asymptotic", lhs, rhs)


def format_statement(statement: Statement) -> str:
    """Spell every coefficient as a parenthesised sum of generators, a form
    the program's own formatter never prints."""

    def coeff_text(coeff) -> str:
        terms = [("-" if value < 0 else "+", f"{abs(value)}*{name}" if name else f"{abs(value)}")
                 for value, name in zip(coeff, ("", "H(A)", "H(B)", "H(E)")) if value]
        (sign, body), rest = terms[0], terms[1:]
        return "(" + ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest) + ")"

    def side(vector: dict) -> str:
        return " + ".join(f"{coeff_text(c)} {kind}" for kind, c in sorted(vector.items()))

    op = ">=!" if statement.mode == "exact" else ">="
    return f"{side(statement.lhs)} {op} {side(statement.rhs)}"


def dual(statement: Statement) -> Statement:
    """Static/dynamic duality: [qq] <-> [q->q] and {qq} <-> {q->q}."""
    swap = lambda vector: {_DUAL.get(kind, kind): c for kind, c in vector.items()}
    return Statement(statement.mode, swap(statement.lhs), swap(statement.rhs))


def statement_from_json(data: dict) -> Statement:
    def side(entries) -> dict:
        vector = {}
        for entry in entries:
            coeff = [Fraction(0)] * 4
            for gen, value in entry["coeff"].items():
                coeff[_GENERATORS.index(gen)] = Fraction(value)
            vector[entry["kind"]] = tuple(coeff)
        return vector

    return Statement(data["mode"], side(data["lhs"]), side(data["rhs"]))


# The paper's statements (Devetak, Harrow and Winter, quant-ph/0308044).
PAPER_TEXT = {
    "mother": "1/2*I(A:E) [q->q] + {qq} >= 1/2*I(A:B) [qq]",
    "father": "1/2*I(A:E) [qq] + {q->q} >= 1/2*I(A:B) [q->q]",
    "tp": "2 [c->c] + [qq] >=! [q->q]",
    "sd": "[q->q] + [qq] >=! 2 [c->c]",
    "qe": "[q->q] >=! [qq]",
    "eq1": "I(A:B) [c->c] + {qq} >= Ic(A>B) [q->q]",
    "eq2": "I(A:E) [c->c] + {qq} >= Ic(A>B) [qq]",
    "eq3": "H(A) [q->q] + {qq} >= I(A:B) [c->c]",
    "eq4": "H(A) [qq] + {q->q} >= I(A:B) [c->c]",
    "eq5": "{q->q} >= Ic(A>B) [q->q]",
}
PAPER = {name: parse_statement(text) for name, text in PAPER_TEXT.items()}
FAMILY_ORDER = tuple(PAPER_TEXT)
PRIMITIVES = FAMILY_ORDER[:5]

# Derivation targets beyond the ten: which statement each must reproduce.
SAME_AS = {
    **{name: name for name in FAMILY_ORDER},
    "eq1_via_eq2": "eq1",
    "mother_via_rule_I": "mother",
    "mother_via_rule_O": "mother",
    "father_via_rule_O": "father",
}
# The parent each derived statement's trace starts from.
TRACE_START = {
    "eq1": "mother", "eq2": "mother", "eq3": "mother", "eq4": "father", "eq5": "father",
    "eq1_via_eq2": "mother", "mother_via_rule_I": "mother",
    "mother_via_rule_O": "mother", "father_via_rule_O": "father",
}
DERIVE_TARGETS = tuple(SAME_AS)

# Exact protocols at coefficient one: what each circuit must book.
PROTOCOL_TEXT = {
    "teleportation": PAPER_TEXT["tp"],
    "superdense": PAPER_TEXT["sd"],
    "entanglement_distribution": PAPER_TEXT["qe"],
    "cobit": "[q->qq] >=! [qq]",
    "coherent_superdense": "[q->q] + [qq] >=! 2 [q->qq]",
    "coherent_teleportation": "2 [q->qq] + [qq] >=! [q->q] + 2 [qq]",
}


def needs_object(name: str) -> str | None:
    """'state' or 'channel' when the statement consumes a noisy resource."""
    lhs = PAPER[name].lhs
    return "state" if "{qq}" in lhs else "channel" if "{q->q}" in lhs else None


def _same(got: Statement, want: Statement, what: str):
    require(got == want, f"{what}: got {format_statement(got)}, want {format_statement(want)}")


# ---------------------------------------------------------------------------
# cli-symbolic outputs
# ---------------------------------------------------------------------------


def _check_trace(name: str, lines: list[str]):
    if name in PRIMITIVES:
        require(lines == ["(primitive)"], f"{name}: a primitive prints no steps, got {lines}")
        return
    require(len(lines) >= 2 and lines[0].startswith("start: "), f"{name}: trace has no start")
    _same(parse_statement(lines[0][len("start: "):]), PAPER[TRACE_START[name]], f"{name} trace start")
    for line in lines[1:]:
        require("  ->  " in line, f"{name}: step without a result: {line!r}")
    last = parse_statement(lines[-1].split("  ->  ", 1)[1])
    _same(last, PAPER[SAME_AS[name]], f"{name} trace end")


def check_family_text(out: str):
    statements: dict[str, str] = {}
    traces: dict[str, list[str]] = {}
    current = None
    for line in out.splitlines():
        if "| " in line:
            require(current is not None, "trace line before any statement")
            traces[current].append(line.split("| ", 1)[1].strip())
        elif line.startswith("  "):
            current, text = line.split(None, 1)
            statements[current] = text
            traces[current] = []
    require(tuple(statements) == FAMILY_ORDER, f"family lists {tuple(statements)}")
    for name in FAMILY_ORDER:
        _same(parse_statement(statements[name]), PAPER[name], name)
        _check_trace(name, traces[name] or ["(primitive)"])


def check_family_json(out: str):
    payload = json.loads(out)
    require(tuple(payload) == FAMILY_ORDER, f"family --json lists {tuple(payload)}")
    for name, data in payload.items():
        require(data["name"] == name, f"entry {name} is named {data['name']!r}")
        _same(statement_from_json(data), PAPER[name], name)
        trace = data["trace"]
        if name in PRIMITIVES:
            require(trace == [], f"{name}: a primitive has no trace")
            continue
        require(len(trace) >= 1, f"{name}: empty trace")
        _same(statement_from_json(trace[0]["before"]), PAPER[TRACE_START[name]], f"{name} trace start")
        _same(statement_from_json(trace[-1]["after"]), PAPER[name], f"{name} trace end")


def check_derive(target: str, out: str):
    head, *rest = out.rstrip("\n").split("\n")
    name, text = head.split(": ", 1)
    require(name == target, f"derive --target {target} printed {name!r}")
    _same(parse_statement(text), PAPER[SAME_AS[target]], target)
    _check_trace(target, [line.strip() for line in rest])


def check_dual(source: Statement, out: str):
    """The printed dual equals the dual of `source` and maps back onto it."""
    printed = parse_statement(out.strip())
    _same(printed, dual(source), "dual")
    _same(dual(printed), source, "dual of the dual")


def dual_text_input(name: str) -> str:
    """Input of `dual --text` for a family member: its dual, spelled here."""
    return format_statement(dual(PAPER[name]))


def check_cli(args: tuple, out: str):
    """Check the stdout of one cli-symbolic op."""
    verb = args[0]
    if verb == "family":
        (check_family_json if "--json" in args else check_family_text)(out)
    elif verb == "derive":
        check_derive(args[2], out)
    elif args[1] == "--ri":
        require(args[2] != "mother" or parse_statement(out.strip()) == PAPER["father"],
                 "dual does not map mother to father")
        check_dual(PAPER[args[2]], out)
    else:
        # dual(dual(x)) == x: the input is the dual of a paper statement.
        _same(parse_statement(out.strip()), parse_statement(_DUAL_TEXT_SOURCE[args[2]]), "dual --text")


_DUAL_TEXT_SOURCE = {dual_text_input(name): PAPER_TEXT[name] for name in FAMILY_ORDER}


# ---------------------------------------------------------------------------
# cli-sweep outputs: closed forms
# ---------------------------------------------------------------------------

SWEEP_HEADER = "param,H_A,H_B,H_E,I_AB,I_AE,Ic"
SWEEP_FAMILIES = ("amplitude_damping", "dephasing", "depolarizing", "erasure", "identity")


def shannon(*probabilities: float) -> float:
    return -sum(q * math.log2(q) for q in probabilities if q > 0)


def binary_entropy(x: float) -> float:
    return shannon(x, 1.0 - x)


def sweep_entropies(family: str, p: float) -> tuple[float, float, float]:
    """(H(A), H(B), H(E)) for the channel on half of a maximally entangled pair."""
    h = binary_entropy
    if family == "erasure":
        return 1.0, h(p) + 1.0 - p, h(p) + p
    if family == "dephasing":
        return 1.0, 1.0, h(p / 2)
    if family == "depolarizing":
        return 1.0, 1.0, shannon(1 - 3 * p / 4, p / 4, p / 4, p / 4)
    if family == "amplitude_damping":
        return 1.0, h((1 - p) / 2), h(p / 2)
    if family == "identity":
        return 1.0, 1.0, 0.0
    raise CheckFailed(f"no closed form for {family!r}")


def check_sweep_csv(family: str, out: str, steps: int = 100):
    lines = out.splitlines()
    require(lines[0] == SWEEP_HEADER, f"sweep header {lines[0]!r}")
    require(len(lines) == steps + 2, f"sweep has {len(lines) - 1} rows, want {steps + 1}")
    for k, line in enumerate(lines[1:]):
        cells = [float(cell) for cell in line.split(",")]
        require(len(cells) == 7, f"row {k} has {len(cells)} cells")
        p = k / steps
        h_a, h_b, h_e = sweep_entropies(family, p)
        want = (p, h_a, h_b, h_e, h_a + h_b - h_e, h_a + h_e - h_b, h_b - h_e)
        for column, got, expected in zip(SWEEP_HEADER.split(","), cells, want):
            require(abs(got - expected) <= TOLERANCE,
                     f"{family} p={p}: {column} = {got!r}, closed form {expected!r}")
        _, h_a, _, _, i_ab, i_ae, i_c = cells
        require(abs(i_ab + i_ae - 2 * h_a) <= TOLERANCE, f"{family} p={p}: I_AB + I_AE != 2 H_A")
        require(abs(i_ab - i_ae - 2 * i_c) <= TOLERANCE, f"{family} p={p}: I_AB - I_AE != 2 Ic")


# ---------------------------------------------------------------------------
# checks: circuits, identities, rates
# ---------------------------------------------------------------------------


def _ledger(text: str) -> dict:
    statement = parse_statement(text)
    side = lambda vector: {kind: int(c[0]) for kind, c in vector.items()}
    return {"consumed": side(statement.lhs), "produced": side(statement.rhs)}


def check_round_trips(stored: dict, replayed: dict, wire: dict, from_wire: dict, from_text: dict):
    """stored: qfamily's derived inequalities by name; replayed: each traced
    one's replay; wire: each one's JSON text, read back in from_wire; from_text:
    each one parsed back from format_ri."""
    for name, ri in stored.items():
        if ri.trace:
            require(replayed[name].same_statement(ri), f"replay of {name} differs")
        require(from_wire[name].same_statement(ri) and len(from_wire[name].trace) == len(ri.trace),
                f"JSON round trip of {name} differs")
        require(from_text[name].same_statement(ri), f"format/parse round trip of {name} differs")
        _same(statement_from_json(json.loads(wire[name])), PAPER[SAME_AS[name]], f"JSON of {name}")


def check_verify_report(report: dict):
    require(report.get("pass") is True, "verify_all reports overall failure")
    protocols = {entry["name"]: entry for entry in report["protocols"]}
    require(list(protocols) == [*PROTOCOL_TEXT, "cobit_equivalence"],
             f"verify_all ran {list(protocols)}")
    for entry in [*report["protocols"], *report["rule_demos"]]:
        require(entry["pass"] is True, f"{entry['name']} did not pass")
        require(entry["fidelity"] >= PROTOCOL_FIDELITY, f"{entry['name']} fidelity {entry['fidelity']}")
    for name, text in PROTOCOL_TEXT.items():
        require(protocols[name]["ledger"] == _ledger(text),
                 f"{name} ledger {protocols[name]['ledger']} does not match {text}")
    equivalence = protocols["cobit_equivalence"]["ledger"]
    require(equivalence["forward"] == _ledger(PROTOCOL_TEXT["coherent_superdense"]), "forward ledger")
    require(equivalence["reverse"] == _ledger(PROTOCOL_TEXT["coherent_teleportation"]), "reverse ledger")
    require(all(v == 0 for v in equivalence["net"].values()), f"net {equivalence['net']} is not zero")
    demos = [entry["name"] for entry in report["rule_demos"]]
    require(demos == ["rule_I_on_teleportation", "rule_O_on_superdense"], f"rule demos {demos}")
    for p in report["rule_demos"][0]["outcome_probabilities"].values():
        require(abs(p - 0.25) <= 1e-12, f"teleportation outcome probability {p}")


def check_identities(values: list[tuple[float, float, float, float]]):
    """values: (I(A:B), I(A:E), H(A), Ic(A>B)) per random state."""
    require(len(values) > 0, "no identity trials ran")
    for i, (i_ab, i_ae, h_a, i_c) in enumerate(values):
        require(abs(0.5 * i_ab + 0.5 * i_ae - h_a) <= TOLERANCE, f"state {i}: I(A:B)/2 + I(A:E)/2 != H(A)")
        require(abs(0.5 * i_ab - 0.5 * i_ae - i_c) <= TOLERANCE, f"state {i}: I(A:B)/2 - I(A:E)/2 != Ic")


def check_rate_table(name: str, table, entropies: tuple[float, float, float]):
    """table: a qfamily RateTable for the paper's statement `name`."""
    statement = PAPER[name]
    for side, entries in ((statement.lhs, table.lhs), (statement.rhs, table.rhs)):
        require(sorted(e.kind_token for e in entries) == sorted(side),
                 f"{name}: rate table lists {[e.kind_token for e in entries]}")
        for entry in entries:
            c = side[entry.kind_token]
            if entry.kind_token in _NOISY:
                require(entry.rate is None and entry.copies == int(c[0]), f"{name}: {entry}")
                continue
            want = float(c[0]) + sum(float(x) * h for x, h in zip(c[1:], entropies))
            require(abs(entry.rate - want) <= TOLERANCE,
                     f"{name}: {entry.kind_token} rate {entry.rate!r}, reference {want!r}")


# Fixed dimensions, so that every seed costs the same; entries are seeded.
STATE_DIMS = ((2, 2), (3, 4))           # (d_A, d_B)
CHANNEL_DIMS = ((2, 3, 2), (3, 2, 3))   # (d_in, d_out, Kraus operators)


def random_registry(seed: int) -> list[dict]:
    """Registry entries in qfamily's JSON layout: random mixed states
    G G^dag / tr, and channels cut from a random isometry (QR)."""
    import numpy as np

    gen = np.random.default_rng(seed)

    def gaussian(rows: int, cols: int):
        return gen.normal(size=(rows, cols)) + 1j * gen.normal(size=(rows, cols))

    def pairs(array) -> list:
        return [[z.real, z.imag] for z in np.asarray(array).reshape(-1)]

    entries = []
    for i, (d_a, d_b) in enumerate(STATE_DIMS):
        g = gaussian(d_a * d_b, d_a * d_b)
        rho = g @ g.conj().T
        entries.append({"name": f"state{i}", "kind": "state", "dims": [d_a, d_b],
                        "data": pairs(rho / np.trace(rho).real)})
    for i, (d_in, d_out, n) in enumerate(CHANNEL_DIMS):
        isometry, _ = np.linalg.qr(gaussian(d_out * n, d_in))
        entries.append({"name": f"channel{i}", "kind": "channel", "dims": [d_in, d_out, n],
                        "data": pairs(isometry.reshape(n, d_out, d_in))})
    return entries


def reference_entropies(entry: dict) -> tuple[float, float, float]:
    """(H(A), H(B), H(E)) of a registry entry, from its own partial traces:
    the state itself, or the channel applied to half of |Phi+>."""
    import numpy as np

    def vn(rho) -> float:
        w = np.linalg.eigvalsh(rho)
        w = w[w > 0]
        return float(-np.sum(w * np.log2(w)))

    data = np.array([complex(re, im) for re, im in entry["data"]])
    if entry["kind"] == "state":
        d_a, d_b = entry["dims"]
        rho = data.reshape(d_a * d_b, d_a * d_b)
    else:
        d_in, d_out, n = entry["dims"]
        d_a, d_b = d_in, d_out
        # (1 x K)|Phi+> has amplitudes K[b, a] / sqrt(d) at (a, b).
        vectors = [(k.T / math.sqrt(d_in)).reshape(-1) for k in data.reshape(n, d_out, d_in)]
        rho = sum(np.outer(v, v.conj()) for v in vectors)
    blocks = rho.reshape(d_a, d_b, d_a, d_b)
    rho_a = np.einsum("ijkj->ik", blocks)
    rho_b = np.einsum("ijil->jl", blocks)
    return vn(rho_a), vn(rho_b), vn(rho)
