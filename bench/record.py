"""Generate the workload pools and record their expected answers.

    python3 bench/record.py [torus|search|algebra ...]

Writes ``bench/corpus/<workload>.json``.  The pools come from a fixed
generator seed, but a slot keeps only variants whose measured cost is close
to its first one, so a re-run gives an equivalent pool, not the same one.
The expected answers are whatever the checked-out chowstab computes, which
is why they are recorded once, at the commit that defined the benchmark,
and re-recorded only by a change that means to alter an answer (and says
so).
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from fractions import Fraction

from run import load_program

load_program()

from chowstab import Poly, torus_certificate  # noqa: E402
from chowstab.fields import domain_from_tag  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import SEMISTABLE, STABLE, UNKNOWN, UNSTABLE  # noqa: E402

POOL_SEED = 20100210
VARIANTS = 3


def monomials(n1: int, d: int) -> list:
    out = []
    for combo in itertools.combinations_with_replacement(range(n1), d):
        exp = [0] * n1
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def coefficient(rng: random.Random, field: str) -> str:
    p = workloads.characteristic(field)
    return str(rng.randrange(1, p)) if p else str(rng.choice(
        [-5, -3, -2, -1, 1, 2, 3, 4, 7]))


def form(n1: int, field: str, terms: dict) -> dict:
    """A variant's form fields from reference-arithmetic terms."""
    return {"nvars": n1, "field": field,
            "terms": [[list(e), str(c)] for e, c in sorted(terms.items())]}


TOLERANCE = 0.12  # variants of a slot cost within 12% of its first one
FLOOR_MS = 0.1  # ... or within this, for calls too short to time closely
TRIES = 60
PATIENCE = 20  # misses in a row before a new first variant is drawn


class NoMatch(Exception):
    pass


def cost_ms(call):
    """Output and cost of one call; cheap calls take the median of five."""
    start = time.perf_counter()
    out = call()
    first = (time.perf_counter() - start) * 1000
    if first >= 20:
        return out, round(first, 2)
    samples = [first]
    for _ in range(4):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1000)
    return out, round(sorted(samples)[2], 3)


def matched_slot(wl, slot_id, kind, draw, accept=None, keep=None,
                 n=VARIANTS) -> dict:
    """A slot of n variants from draw() of nearly the same cost.

    draw() returns a candidate variant or None; accept(expected) may refuse
    a candidate by its answer; keep(variant, output) sees accepted outputs.
    Every accepted variant passes the independent rechecks and stores its
    canonical answer as ``expected``.
    """
    slot = {"id": slot_id, "kind": kind, "variants": []}
    rng = random.Random(0)
    misses = tries = 0
    while tries < TRIES:
        variant = draw()
        if variant is None:
            continue
        tries += 1
        misses += 1
        if misses > PATIENCE:
            slot["variants"], misses = [], 0
        op = wl.make_op(slot, variant, rng)
        out, cost = cost_ms(op.call)
        expected = wl.canonical(op, out)
        if accept is not None and not accept(expected):
            continue
        if slot["variants"]:
            anchor = slot["variants"][0]["cost_ms"]
            if abs(cost - anchor) > max(TOLERANCE * anchor, FLOOR_MS):
                continue
        problems = wl.recheck(op, out)
        if problems:
            raise SystemExit(f"{slot_id}: {problems}")
        if keep is not None:
            keep(variant, out)
        slot["variants"].append({**variant, "expected": expected,
                                 "cost_ms": cost})
        misses = 0
        if len(slot["variants"]) == n:
            print(f"  {slot_id}: {[v['cost_ms'] for v in slot['variants']]}",
                  file=sys.stderr)
            return slot
    print(f"  {slot_id}: no {n} variants of matching cost", file=sys.stderr)
    raise NoMatch(slot_id)


def save(name: str, slots: list, warmup_slots: int):
    slots = [slots[0]] + sorted(slots[1:], key=slot_cost)
    pool = {"workload": name, "pool_seed": POOL_SEED,
            "recorded_with": "chowstab at the commit that added the "
                             "benchmark", "warmup_slots": warmup_slots,
            "slots": slots}
    path = workloads.CORPUS_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    per_pass = sum(slot_cost(s) for s in slots)
    print(f"{name}: {len(slots)} slots, about {per_pass / 1000:.2f} s per "
          f"pass -> {path}")


def slot_cost(slot) -> float:
    return sum(v["cost_ms"] for v in slot["variants"]) / len(slot["variants"])


# -- torus ---------------------------------------------------------------------

TORUS_MIX = ((UNSTABLE, 15), (STABLE, 9), (SEMISTABLE, 8))


def fermat_terms(n1, d):
    return {tuple(d if j == i else 0 for j in range(n1)): 1 for i in range(n1)}


def torus_slots(rng: random.Random) -> list:
    wl = workloads.Torus(pool={"slots": []})
    slots = []
    fermat = {e: Fraction(c) for e, c in fermat_terms(4, 3).items()}
    for m in (1, 2, 3):  # the Fermat cubic surface and its multiples
        terms = checks.power(fermat, m, 0)
        fixed = {**form(4, "q", terms),
                 "support": [list(e) for e in sorted(terms)]}
        slots.append(matched_slot(wl, f"fermat-cubic-surface-m{m}", "fixed",
                                  lambda: fixed, n=1))
    for verdict, count in TORUS_MIX:
        for k in range(count):
            while True:
                n1, d = rng.randint(3, 5), rng.randint(2, 4)
                monos = monomials(n1, d)
                # term counts where the verdict is common enough to draw
                low, high = {UNSTABLE: (3, n1 + 3),
                             STABLE: (n1 + 2, 8 if n1 == 5 else 10),
                             SEMISTABLE: (3, 12)}[verdict]
                high = min(high, len(monos))
                if low > high:
                    continue
                m = rng.randint(low, high)

                def draw():
                    sup = sorted(rng.sample(monos, m))
                    return {"nvars": n1, "support": [list(e) for e in sup]}

                try:
                    slots.append(matched_slot(
                        wl, f"{verdict.split('_')[0]}-{k:02d}-n{n1}d{d}m{m}",
                        "random", draw,
                        accept=lambda want: want["verdict"] == verdict))
                    break
                except NoMatch:
                    continue
    return slots


# -- search --------------------------------------------------------------------

BUDGET = {"max_candidates": 4, "scalars": [1, -1], "depth": 1, "seed": 2010}
FIELDS = ("q", "fp:2", "fp:3", "fp:5", "fp:7", "fp:11")


def cyclic_terms(n1, d):
    terms = {}
    for i in range(n1):
        exp = [0] * n1
        exp[i] += d - 1
        exp[(i + 1) % n1] += 1
        terms[tuple(exp)] = 1
    return terms


def random_sparse(rng, n1, d, field, nterms):
    p = workloads.characteristic(field)
    return checks.reduce({e: workloads.to_number(coefficient(rng, field), p)
                          for e in rng.sample(monomials(n1, d), nterms)}, p)


def torus_unstable(n1, field, terms) -> bool:
    f = Poly(n1, domain_from_tag(field),
             {e: Fraction(c) for e, c in terms.items()})
    return torus_certificate(f).verdict.value == UNSTABLE


def exhausted(want) -> bool:
    return want["verdict"] == UNKNOWN


def found_late(want) -> bool:
    """A witness, but not in the starting coordinates."""
    return want["verdict"] == UNSTABLE \
        and want["counters"]["candidates_enumerated"] > 1


def search_slots(rng: random.Random) -> list:
    wl = workloads.Search(pool={"slots": []})
    slots = []

    def add(slot_id, draw, accept):
        def with_budget():
            variant = draw()
            return None if variant is None else {**variant, "budget": BUDGET}
        slots.append(matched_slot(wl, slot_id, "search", with_budget, accept))

    def symmetric(build, n1, d, fields=FIELDS):
        def draw():
            field = rng.choice(fields)
            p = workloads.characteristic(field)
            return form(n1, field, checks.reduce(
                {e: workloads.to_number(coefficient(rng, field), p)
                 for e in build(n1, d)}, p))
        return draw

    def sparse(n1, d, hide):
        # hidden forms of one slot sit behind the same transvection, so
        # the search meets their witness at about the same candidate
        i, j = rng.sample(range(n1), 2)
        g = [[int(a == b) for b in range(n1)] for a in range(n1)]
        g[i][j] = rng.choice((1, -1))

        def draw():
            field = rng.choice(FIELDS[1:4] + ("q",))
            terms = random_sparse(rng, n1, d, field, rng.randint(3, n1 + 2))
            if len(terms) < 3 or torus_unstable(n1, field, terms) != hide:
                return None
            if hide:
                terms = checks.substitute_linear(
                    terms, g, workloads.characteristic(field))
                if torus_unstable(n1, field, terms):
                    return None
            return form(n1, field, terms)
        return draw

    add("fermat-n3d3", symmetric(fermat_terms, 3, 3), exhausted)
    add("fermat-n3d4", symmetric(fermat_terms, 3, 4), exhausted)
    add("cyclic-n3d3", symmetric(cyclic_terms, 3, 3), exhausted)
    add("klein-quartic-n3d4", symmetric(cyclic_terms, 3, 4), exhausted)
    add("fermat-n4d3", symmetric(fermat_terms, 4, 3), exhausted)
    add("cyclic-n4d3", symmetric(cyclic_terms, 4, 3), exhausted)
    add("random-n3d3", sparse(3, 3, False), exhausted)
    add("random-n3d4", sparse(3, 4, False), exhausted)
    # a sum of cubes over F_3 is a cube of a linear form
    add("frobenius-fermat-n3d3", symmetric(fermat_terms, 3, 3, ("fp:3",)),
        found_late)
    add("frobenius-fermat-n4d4", symmetric(fermat_terms, 4, 4, ("fp:2",)),
        found_late)
    add("hidden-unstable-a-n3d3", sparse(3, 3, True), found_late)
    add("hidden-unstable-b-n3d3", sparse(3, 3, True), found_late)
    add("hidden-unstable-n3d4", sparse(3, 4, True), found_late)
    return slots


# -- algebra -------------------------------------------------------------------


def binary_form(rng, d, field):
    p = workloads.characteristic(field)
    terms = {(d - k, k): (rng.randrange(p) if p else rng.randint(-20, 20))
             for k in range(d + 1)}
    terms[(d, 0)] = rng.randrange(1, p) if p else rng.randint(1, 20)
    return checks.reduce(terms, p)


def algebra_slots(rng: random.Random) -> list:
    wl = workloads.Algebra(pool={"slots": []})
    slots = []

    def keep_generic(variant, out):
        # the numeric checks evaluate the generic discriminants kept here
        variant["terms"] = [[list(e), str(c)]
                            for e, c in sorted(out.terms.items())]
        wl.generic[variant["d"]] = dict(out.terms)

    def with_support(n1, field, support, arg):
        """Variants differ only in coefficients, so in little else."""
        p = workloads.characteristic(field)

        def draw():
            terms = {e: workloads.to_number(coefficient(rng, field), p)
                     for e in support}
            return {**form(n1, field, checks.reduce(terms, p)), "arg": arg}
        return draw

    for d in (3, 4, 5, 6):
        slots.append(matched_slot(wl, f"generic-disc-d{d}", "generic",
                                  lambda: {"d": d}, keep=keep_generic, n=1))
    for field_kind in ("q", "fp"):
        for d in range(3, 9):
            def draw():
                field = "q" if field_kind == "q" else \
                    f"fp:{rng.choice((3, 5, 7, 11, 13))}"
                return form(2, field, binary_form(rng, d, field))
            slots.append(matched_slot(wl, f"binary-{field_kind}-d{d}",
                                      "binary", draw))
    for p, e, support in ((2, 9, ((2, 0), (0, 3), (2, 3))),
                          (3, 5, ((2, 0), (0, 3), (2, 3))),
                          (5, 3, ((3, 0), (0, 4), (3, 4))),
                          (7, 3, ((2, 0), (0, 5), (2, 5))),
                          (2, 6, ((3, 0, 0), (0, 3, 0), (1, 1, 1)))):
        n1 = len(support[0])
        slots.append(matched_slot(wl, f"fpt-p{p}e{e}-n{n1}", "fpt",
                                  with_support(n1, f"fp:{p}", support, e)))
    for k, (n1, mw) in enumerate(((2, 20), (2, 20), (3, 12), (3, 20))):
        exps = [tuple(rng.randint(2, 7) if j == i else 0 for j in range(n1))
                for i in range(n1)]
        support = exps + [tuple(rng.randint(1, 3) for _ in range(n1))]
        slots.append(matched_slot(wl, f"lct-{k}-n{n1}-w{mw}", "lct",
                                  with_support(n1, "q", support, mw)))
    for p, e, n1 in ((2, 6, 3), (5, 3, 3), (7, 2, 3), (2, 4, 4), (3, 2, 4),
                     (5, 1, 4)):
        support = rng.sample(monomials(n1, 3), n1 + 1)
        slots.append(matched_slot(wl, f"singular-p{p}e{e}-n{n1}", "singular",
                                  with_support(n1, f"fp:{p}", support, e)))
    for n1, d in ((4, 3), (3, 4)):
        support = rng.sample(monomials(n1, d), 5)
        for m in (3, 4):
            slots.append(matched_slot(
                wl, f"multiple-n{n1}d{d}-m{m}", "multiple",
                with_support(n1, rng.choice(("q", "fp:5", "fp:7")), support,
                             m)))
    return slots


BUILDERS = {"torus": (torus_slots, 3), "search": (search_slots, 2),
            "algebra": (algebra_slots, 6)}


def main(names):
    for name in names or BUILDERS:
        build, warmup_slots = BUILDERS[name]
        save(name, build(random.Random(f"{POOL_SEED}/{name}")), warmup_slots)


if __name__ == "__main__":
    main(sys.argv[1:])
