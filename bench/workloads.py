"""The three workloads: recorded pools, the seed's corpus, ops and checks.

Each workload reads its pool from ``corpus/<name>.json``.  A pool is a list
of slots; a slot holds interchangeable variants of one kind of input, of
similar cost, each with the answer recorded at the seed commit
(``record.py`` wrote them).  The corpus for ``--seed`` takes one variant
per slot, chosen by the seed, and shuffles them; the torus workload also
draws each form's field and coefficients from the seed, which is sound
because a torus verdict and its witness depend only on the support.

Every op's output is mapped to a canonical JSON value and compared with the
recorded one, and additionally re-checked with the reference arithmetic in
``checks.py`` where the property can be recomputed without chowstab.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from chowstab import cli, cycles, discriminants, stability, thresholds
from chowstab.fields import domain_from_tag
from chowstab.poly import Poly

import checks

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

UNSTABLE = "unstable_witness"
SEMISTABLE = "strictly_semistable_torus"
STABLE = "stable_torus"
UNKNOWN = "unknown_after_search"


@dataclass
class Op:
    """One unit of work: a call into chowstab plus what its answer must be."""

    slot: str
    kind: str
    variant: dict
    call: Callable[[], object]


def characteristic(field: str) -> int:
    return int(field[3:]) if field.startswith("fp:") else 0


def to_number(text: str, p: int):
    """Recorded coefficient text as a reference-arithmetic value."""
    value = Fraction(text)
    if p:
        return value.numerator * pow(value.denominator, -1, p) % p
    return value


def reference_terms(variant: dict) -> dict:
    p = characteristic(variant["field"])
    return checks.reduce({tuple(e): to_number(c, p)
                          for e, c in variant["terms"]}, p)


def make_poly(variant: dict) -> Poly:
    domain = domain_from_tag(variant["field"])
    return Poly(variant["nvars"], domain,
                {tuple(e): Fraction(c) for e, c in variant["terms"]})


def poly_text(terms) -> str:
    """Grammar text for [(exponent, coefficient text)] pairs."""
    pieces = []
    for exp, coeff in terms:
        factors = [f"x{i}" if k == 1 else f"x{i}^{k}"
                   for i, k in enumerate(exp) if k]
        c = Fraction(coeff)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = "*".join(factors) if mag == 1 else "*".join([str(mag)] + factors)
        pieces.append((sign, body))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def terms_of(poly) -> dict:
    """Term dict of a chowstab Poly with reference-arithmetic coefficients."""
    if poly.domain.kind == "FP":
        return {e: c.residue for e, c in poly.terms.items()}
    return dict(poly.terms)


class Workload:
    name = ""

    def __init__(self, pool: dict | None = None):
        if pool is None:
            with open(CORPUS_DIR / f"{self.name}.json", encoding="utf-8") as fh:
                pool = json.load(fh)
        self.pool = pool
        self.slots = pool["slots"]

    def corpus(self, seed: int, limit: int | None = None) -> list:
        """The seed's ops: one variant per slot, in a seeded order."""
        rng = random.Random(f"{self.name}/{seed}")
        ops = [self.make_op(slot, rng.choice(slot["variants"]), rng)
               for slot in self.slots[:limit]]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        """Fixed, seed-independent ops run once before timing starts."""
        rng = random.Random(f"{self.name}/warmup")
        return [self.make_op(slot, slot["variants"][0], rng)
                for slot in self.slots[:self.pool["warmup_slots"]]]

    def make_op(self, slot: dict, variant: dict, rng: random.Random) -> Op:
        raise NotImplementedError

    def canonical(self, op: Op, output) -> dict:
        raise NotImplementedError

    def recheck(self, op: Op, output) -> list:
        """Independent checks; returns a list of problems (empty when fine)."""
        raise NotImplementedError


# -- torus: certify-torus through the CLI ----------------------------------------


def _draw_coefficient(rng: random.Random, field: str) -> str:
    p = characteristic(field)
    if p:
        return str(rng.randrange(1, p))
    return str(Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5, 7]),
                        rng.choice([1, 1, 2, 3])))


class Torus(Workload):
    name = "torus"
    fields = ("q", "fp:2", "fp:5")

    def make_op(self, slot, variant, rng):
        if "terms" in variant:  # fixed form, e.g. a Fermat multiple
            field, terms = variant["field"], variant["terms"]
        else:
            field = rng.choice(self.fields)
            terms = [(e, _draw_coefficient(rng, field))
                     for e in variant["support"]]
        argv = ["certify-torus", "--nvars", str(variant["nvars"]),
                "--field", field, "--poly", poly_text(terms), "--json"]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            return code, buf.getvalue()

        return Op(slot["id"], "certify-torus", variant, call)

    def canonical(self, op, output):
        code, text = output
        result = json.loads(text)["result"]
        return {"exit": code, "verdict": result["verdict"],
                "witness_r": result.get("witness_r"), "mu": result.get("mu"),
                "lp_value": result.get("lp_value")}

    def recheck(self, op, output):
        code, text = output
        doc = json.loads(text)
        if code != 0 or doc["command"] != "certify-torus":
            return [f"exit {code}, command {doc['command']!r}"]
        return _recheck_witness(doc["result"]["verdict"],
                                doc["result"].get("witness_r"),
                                doc["result"].get("mu"),
                                [tuple(e) for e in op.variant["support"]])


def _recheck_witness(verdict, r, mu, support) -> list:
    """Brute-force min <r, alpha> over the support against the verdict."""
    if verdict in (STABLE, UNKNOWN):
        return [] if r is None and mu is None else [
            f"{verdict} carries a witness"]
    if verdict not in (UNSTABLE, SEMISTABLE):
        return [f"unknown verdict {verdict!r}"]
    if r is None or not checks.is_primitive_zero_sum(r):
        return [f"witness {r} is not primitive and zero-sum"]
    value = checks.min_weight(support, r)
    if verdict == UNSTABLE and not (value > 0 and value == mu):
        return [f"min <r, alpha> = {value}, reported mu {mu}, need > 0"]
    if verdict == SEMISTABLE and not (value == 0 and mu == 0):
        return [f"min <r, alpha> = {value}, reported mu {mu}, need 0"]
    return []


# -- search: destab_search library calls ------------------------------------------


def closed_form_enumerated(n1: int, budget: dict, p: int) -> int:
    """1 + gens + gens^2 + ... + gens^depth + max_candidates."""
    scalars = [s for s in budget["scalars"] if (s % p if p else s)]
    gens = (math.factorial(n1) - 1) + n1 * (n1 - 1) * len(scalars)
    return 1 + sum(gens ** k for k in range(1, budget["depth"] + 1)) \
        + budget["max_candidates"]


class Search(Workload):
    name = "search"

    def make_op(self, slot, variant, rng):
        form = make_poly(variant)
        b = variant["budget"]
        budget = stability.SearchBudget(
            max_candidates=b["max_candidates"],
            transvection_scalars=tuple(b["scalars"]), depth=b["depth"],
            seed=b["seed"])
        return Op(slot["id"], "destab_search", variant,
                  lambda: stability.destab_search(form, budget))

    def canonical(self, op, cert):
        return {"verdict": cert.verdict.value,
                "witness_r": (list(cert.witness_r.entries)
                              if cert.witness_r is not None else None),
                "witness_g": ([[str(v) for v in row]
                               for row in cert.witness_g]
                              if cert.witness_g is not None else None),
                "mu": cert.mu_value,
                "lp_value": (str(cert.lp_value)
                             if cert.lp_value is not None else None),
                "counters": cert.search_budget_used.as_dict()}

    def recheck(self, op, cert):
        v = op.variant
        p = characteristic(v["field"])
        used = cert.search_budget_used
        problems = []
        if not (used.lp_calls <= used.candidates_tested
                <= used.candidates_enumerated):
            problems.append(f"inconsistent counters {used}")
        verdict = cert.verdict.value
        if verdict == UNKNOWN:
            want = closed_form_enumerated(v["nvars"], v["budget"], p)
            if used.candidates_enumerated != want:
                problems.append(f"enumerated {used.candidates_enumerated}, "
                                f"closed form {want}")
            return problems
        if verdict != UNSTABLE or cert.witness_g is None:
            return problems + [f"search returned {verdict} without a matrix"]
        g = [[to_number(str(x), p) for x in row] for row in cert.witness_g]
        if checks.determinant(g, p) == 0:
            problems.append("witness matrix is singular")
        moved = checks.substitute_linear(reference_terms(v), g, p)
        r = list(cert.witness_r.entries)
        return problems + _recheck_witness(verdict, r, cert.mu_value, moved)


# -- algebra: polynomial arithmetic without any LP ---------------------------------


def _points_digest(points) -> str:
    listing = [[list(c) for c in pt.coords] for pt in points]
    return hashlib.sha256(json.dumps(listing).encode()).hexdigest()


class Algebra(Workload):
    name = "algebra"

    def __init__(self, pool: dict | None = None):
        super().__init__(pool)
        self.generic = {}
        for slot in self.slots:
            for v in slot["variants"]:
                if slot["kind"] == "generic":
                    self.generic[v["d"]] = {tuple(e): int(c)
                                            for e, c in v["terms"]}

    def make_op(self, slot, variant, rng):
        kind = slot["kind"]
        if kind == "generic":
            d = variant["d"]
            call = lambda: discriminants.discriminant_binary(d, "generic")
        else:
            form = make_poly(variant)
            arg = variant.get("arg")
            call = {
                "binary": lambda: (
                    discriminants.discriminant_binary(
                        form.homogeneous_degree, "numeric", form),
                    discriminants.smoothness_binary(form)),
                "fpt": lambda: thresholds.fpt_interval(form, arg),
                "lct": lambda: thresholds.lct_bound_optimize(form, arg),
                "singular": lambda: discriminants.singular_locus_enumerate(
                    form, arg),
                "multiple": lambda: cycles.multiple_cycle(form, arg),
            }[kind]
        return Op(slot["id"], kind, variant, call)

    def canonical(self, op, out):
        kind = op.kind
        if kind in ("generic", "multiple"):
            return {"nterms": len(out.terms),
                    "sha256": checks.terms_digest(out.terms)}
        if kind == "binary":
            return {"disc": str(out[0]), "smooth": bool(out[1])}
        if kind == "fpt":
            return {"lower": str(out.lower), "upper": str(out.upper),
                    "nu_by_e": [list(x) for x in out.provenance["nu_by_e"]]}
        if kind == "lct":
            return {"best_bound": str(out.best_bound),
                    "best_w": list(out.best_w.w)}
        if kind == "singular":
            return {"count": len(out), "sha256": _points_digest(out)}
        raise ValueError(f"unknown op kind {kind!r}")

    def recheck(self, op, out):
        kind, v = op.kind, op.variant
        if kind == "generic":
            d = v["d"]
            bad = [e for e in out.terms
                   if sum(e) != 2 * (d - 1)
                   or sum(k * x for k, x in enumerate(e)) != d * (d - 1)]
            return [f"{len(bad)} terms not of degree {2 * (d - 1)} and "
                    f"weight {d * (d - 1)}"] if bad else []
        p = characteristic(v["field"])
        terms = reference_terms(v)
        if kind == "binary":
            d = sum(next(iter(terms)))
            disc, smooth = to_number(str(out[0]), p), out[1]
            problems = []
            if d <= 6:
                coeffs = [terms.get((d - k, k), 0) for k in range(d + 1)]
                want = checks.evaluate(self.generic[d], coeffs, p)
                if disc != want:
                    problems.append(f"numeric discriminant {disc}, generic "
                                    f"one evaluates to {want}")
            # when p divides d, Euler's relation fails and disc = 0 says
            # nothing about smoothness
            if not (p and d % p == 0) and smooth != (disc != 0):
                problems.append(f"smooth={smooth} but the discriminant is "
                                f"{disc}")
            return problems
        if kind == "fpt":
            nus = out.provenance["nu_by_e"]
            e_max = v["arg"]
            ok = ([e for e, _ in nus] == list(range(1, e_max + 1))
                  and all(b >= p * a for (_, a), (_, b) in zip(nus, nus[1:]))
                  and out.lower == Fraction(nus[-1][1], p ** e_max)
                  and out.upper == Fraction(nus[-1][1] + 1, p ** e_max))
            return [] if ok else [f"inconsistent fpt interval {nus}"]
        if kind == "lct":
            w = list(out.best_w.w)
            bound = Fraction(sum(w), checks.min_weight(terms, w))
            ok = (math.gcd(*w) == 1 and max(w) <= v["arg"]
                  and bound == out.best_bound)
            return [] if ok else [f"bound {out.best_bound} for w={w}, "
                                  f"recomputed {bound}"]
        if kind == "singular":
            return _recheck_singular(terms, v["arg"], p, out)
        if kind == "multiple":
            want = checks.power(terms, v["arg"], p)
            return [] if terms_of(out) == want else ["power differs from the "
                                                     "reference product"]
        return [f"unknown op kind {kind!r}"]


def _recheck_singular(terms: dict, e: int, p: int, points) -> list:
    """Over F_p itself, every reported point must kill every partial."""
    if e != 1:
        return []
    n = len(next(iter(terms)))
    partials = []
    for i in range(n):
        d_i = {}
        for exp, c in terms.items():
            if exp[i] and (c * exp[i]) % p:
                lowered = list(exp)
                lowered[i] -= 1
                d_i[tuple(lowered)] = c * exp[i] % p
        partials.append(d_i)
    for pt in points:
        coords = [c[0] for c in pt.coords]
        lead = next(c for c in coords if c)
        if lead != 1 or any(checks.evaluate(g, coords, p) for g in partials):
            return [f"point {coords} is not a normalized critical point"]
    return []


WORKLOADS = {w.name: w for w in (Torus, Search, Algebra)}
