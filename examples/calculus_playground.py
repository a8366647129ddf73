"""Working directly with the monoid comprehension calculus.

Run with:  python examples/calculus_playground.py

For users who want the paper's machinery without OQL: build comprehensions
with the term DSL, normalize them step by step, type-check them, and unnest
them — including the paper's QUERY C (set containment via quantifier
monoids) and the Section 2 travel-agency example.
"""

from __future__ import annotations

from repro import (
    ab_database,
    evaluate,
    evaluate_plan,
    infer_type,
    prepare,
    pretty,
    pretty_plan,
    travel_database,
    unnest_query,
)
from repro.calculus.terms import (
    BinOp,
    Extent,
    comprehension,
    const,
    path,
    var,
)


def query_c() -> None:
    """A ⊆ B as nested quantifier monoids: &{ |{ a=b | b <- B } | a <- A }."""
    containment = comprehension(
        "all",
        comprehension("some", BinOp("==", var("a"), var("b")), ("b", Extent("B"))),
        ("a", Extent("A")),
    )
    print("QUERY C (A subset-of B):")
    print("  calculus: ", pretty(containment))
    print("  type:     ", infer_type(containment))

    plan = unnest_query(containment)
    print("\n  unnested plan (Figure 1.C):")
    print(pretty_plan(plan).replace("\n", "\n  "))

    for subset in (False, True):
        db = ab_database(size_a=10, size_b=15, subset=subset, seed=1)
        naive = evaluate(containment, db)
        unnested = evaluate_plan(plan, db)
        assert naive == unnested
        print(f"\n  subset={subset}:  A ⊆ B evaluates to {naive}")


def hotels() -> None:
    """The Section 2 normalization example, built by hand."""
    arlington_hotels = comprehension(
        "set", var("h"),
        ("c", Extent("Cities")),
        ("h", path("c", "hotels")),
        BinOp("==", path("c", "name"), const("Arlington")),
    )
    texas_attraction_names = comprehension(
        "set", path("t", "name"),
        ("s", Extent("States")),
        ("t", path("s", "attractions")),
        BinOp("==", path("s", "name"), const("Texas")),
    )
    query = comprehension(
        "set", path("hotel", "price"),
        ("hotel", arlington_hotels),
        comprehension(
            "some", BinOp("==", path("r", "bed_num"), const(3)),
            ("r", path("hotel", "rooms")),
        ),
        comprehension(
            "some", BinOp("==", var("n"), path("hotel", "name")),
            ("n", texas_attraction_names),
        ),
    )
    print("\n" + "=" * 72)
    print("Section 2 example, before normalization:")
    print("  ", pretty(query))

    normalized = prepare(query)
    print("\nAfter normalization — one flat comprehension, all generator")
    print("domains reduced to paths (exactly the paper's canonical form):")
    print("  ", pretty(normalized))

    db = travel_database(seed=42)
    prices = evaluate(normalized, db)
    assert prices == evaluate(query, db)
    print(f"\nArlington hotel prices matching the criteria: {prices}")


def monoid_mixing() -> None:
    """Comprehensions can mix collection inputs and primitive outputs."""
    print("\n" + "=" * 72)
    print("Monoid mixing — one comprehension per monoid over the same data:")
    db = ab_database(size_a=10, size_b=5, seed=3)
    gen = ("x", Extent("A"))
    for monoid_name, head in [
        ("sum", var("x")),
        ("max", var("x")),
        ("min", var("x")),
        ("avg", var("x")),
        ("all", BinOp(">", var("x"), const(0))),
        ("some", BinOp(">", var("x"), const(25))),
        ("set", var("x")),
        ("bag", BinOp("/", var("x"), const(10))),
    ]:
        term = comprehension(monoid_name, head, gen)
        print(f"  {pretty(term):48s} = {evaluate(term, db)}")


if __name__ == "__main__":
    query_c()
    hotels()
    monoid_mixing()
