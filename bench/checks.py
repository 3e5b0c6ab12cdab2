"""Output checks for every op, from oracles that share no code with eulercong.

The oracles are short recurrences and closed forms over Python integers and
``fractions.Fraction``. Each check returns ``None`` when the op's exit code
and stdout are right, or a one-line reason when they are not. Checks run
outside the timed region.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from itertools import zip_longest
from math import comb
from typing import Iterator


def eulerian_rows(ell: int) -> Iterator[list[int]]:
    """Rows 1..ell of the Eulerian triangle: A(n,k) = k A(n-1,k) + (n-k+1) A(n-1,k-1)."""
    row: list[int] = []
    for n in range(1, ell + 1):
        p = [0] + row + [0]
        row = [k * p[k] + (n - k + 1) * p[k - 1] for k in range(1, n + 1)] if n > 1 else [1]
        yield row


def eulerian_coeffs(ell: int) -> list[int]:
    """Coefficients of A_ell, lowest degree first; A_0 = 1."""
    return [0] + deque(eulerian_rows(ell), maxlen=1)[0] if ell else [1]


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n with B_1 = -1/2, from sum_{j<=k} C(k+1, j) B_j = 0."""
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(-sum(comb(k + 1, j) * out[j] for j in range(k)) / (k + 1))
    return out


def linial_coeffs(ell: int, m: int) -> list[Fraction]:
    """((1 + S + ... + S^m)/(m+1))^(ell+1) applied to t^ell, with S t^ell = (t-1)^ell."""
    weights = [1]
    for _ in range(ell + 1):
        weights = [
            sum(weights[i - j] for j in range(m + 1) if 0 <= i - j < len(weights))
            for i in range(len(weights) + m)
        ]
    scale = (m + 1) ** (ell + 1)
    return [
        Fraction(comb(ell, k) * sum(w * (-j) ** (ell - k) for j, w in enumerate(weights)), scale)
        for k in range(ell + 1)
    ]


def _strip(coeffs) -> list:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_text(coeffs) -> str:
    """The CLI's canonical form: "p/q" coefficients, lowest degree first."""
    cs = _strip(coeffs)
    return " ".join(str(Fraction(c)) for c in cs) if cs else "0"


def parse_text(text: str) -> list[Fraction]:
    return _strip(Fraction(tok) for tok in text.split())


def pretty(coeffs, var: str = "x", descending: bool = False) -> str:
    """The CLI's human-readable form, e.g. "x + 4x^2 + x^3" or "t^2 - 3t + 3"."""
    terms = [(i, Fraction(c)) for i, c in enumerate(coeffs) if c != 0]
    if descending:
        terms.reverse()
    out = ""
    for i, c in terms:
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + (var if i == 1 else f"{var}^{i}")
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out or "0"


def evaluate(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _expect(rc, out, want_rc, want_out):
    if rc != want_rc:
        return f"exit code {rc!r}, expected {want_rc}"
    if out != want_out:
        return "stdout differs from the oracle"
    return None


def check_verify(p, rc, out):
    ell, m, f = p["ell"], p["m"], p["f"]
    try:
        report = json.loads(out)
        defect, remainder, quotient = (
            parse_text(report[key]) for key in ("defect", "remainder", "quotient")
        )
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    holds = f == eulerian_coeffs(ell)
    if (report.get("ell"), report.get("m"), report.get("f")) != (ell, m, poly_text(f)):
        return "report echoes the wrong ell, m or f"
    if report.get("holds") is not holds:
        return f"holds is {report.get('holds')!r}, expected {holds}"
    if rc != (0 if holds else 1):
        return f"exit code {rc!r} does not match holds={holds}"
    if (not remainder) != holds or len(remainder) > ell + 1:
        return "remainder is not a zero-iff-holds polynomial of degree <= ell"
    for x in p["points"]:
        window = (sum(x**i for i in range(m)) / m) ** (ell + 1)
        value = evaluate(defect, x)
        if value != evaluate(f, x**m) - window * evaluate(f, x):
            return f"defect wrong at x = {x}"
        if value != evaluate(quotient, x) * (x - 1) ** (ell + 1) + evaluate(remainder, x):
            return f"defect != quotient*(x-1)^(ell+1) + remainder at x = {x}"
    return None


def check_solve(p, rc, out):
    a = eulerian_coeffs(p["ell"])
    payload = {
        "ell": p["ell"],
        "m": p["m"],
        "solution": poly_text(a),
        "pretty": pretty(a),
        "rank": p["ell"],
        "unique": True,
        "matches_recurrence": True,
    }
    return _expect(rc, out, 0, _json_text(payload))


def check_linial(p, rc, out):
    chi = pretty(linial_coeffs(p["ell"], p["m"]), var="t", descending=True)
    want = f"mean-shift route: {chi}\nworpitzky route:  {chi}\nagree = true\n"
    return _expect(rc, out, 0, want)


def check_worpitzky(p, rc, out):
    ell = p["ell"]
    return _expect(rc, out, 0, f"worpitzky check ell={ell}: PASS\nvalue = t^{ell}\n")


def check_bernoulli(p, rc, out):
    numbers = bernoulli_numbers(p["ell"])
    polys = [[comb(n, k) * numbers[n - k] for k in range(n + 1)] for n in range(p["ell"] + 1)]
    payload = {
        "ell": p["ell"],
        "polynomials": [poly_text(c) for c in polys],
        "numbers": [str(b) for b in numbers],
    }
    return _expect(rc, out, 0, _json_text(payload))


def _eulerian_json_lines(ell: int) -> Iterator[str]:
    # The lines json.dumps(..., indent=2, sort_keys=True) prints, one row of
    # the triangle at a time: outputs reach 4 MB, and building them whole
    # would make the check, not the program, set the peak RSS.
    a = eulerian_coeffs(ell)
    yield "{"
    yield f'  "ell": {ell},'
    yield f'  "polynomial": {json.dumps(poly_text(a))},'
    yield f'  "pretty": {json.dumps(pretty(a))},'
    yield '  "triangle": ['
    for n, row in enumerate(eulerian_rows(ell), start=1):
        yield "    ["
        yield from (f'      "{v}",' for v in row[:-1])
        yield f'      "{row[-1]}"'
        yield "    ]," if n < ell else "    ]"
    yield "  ]"
    yield "}"


def _lines(text: str) -> Iterator[str]:
    """The lines of text with their newlines, without copying text whole."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def check_eulerian(p, rc, out):
    if rc != 0:
        return f"exit code {rc!r}, expected 0"
    for want, got in zip_longest(_eulerian_json_lines(p["ell"]), _lines(out)):
        if want is None or got != want + "\n":
            return "stdout differs from the oracle"
    return None


def check_audit(p, rc, out):
    if rc != 0:
        return f"exit code {rc!r}, expected 0"
    lines = out.splitlines()
    if p["format"] == "json":
        try:
            report = json.loads(out)
            checks = report["checks"]
            passed = all(c["passed"] is True for c in checks)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        ok = checks and passed and report.get("all_passed") is True
        ok = ok and (report.get("max_ell"), report.get("max_m"), report.get("seed")) == (
            p["ell"], p["m"], p["seed"],
        )
    elif p["format"] == "csv":
        ok = lines and all(line.split(",")[1:2] == ["pass"] for line in lines)
    else:
        n = len(lines) - 1
        ok = n > 0 and all(line.startswith("PASS  ") for line in lines[:-1])
        ok = ok and lines[-1] == f"{n}/{n} checks passed"
    return None if ok else "not every audit check passed"


CHECKS = {
    "verify": check_verify,
    "solve": check_solve,
    "linial": check_linial,
    "worpitzky": check_worpitzky,
    "bernoulli": check_bernoulli,
    "eulerian": check_eulerian,
    "audit": check_audit,
}
