"""Seeded, schema-valid input panels for the benchmark workloads.

Every panel is canonical CSV text: years are contiguous within a chain and
``fail=1`` appears only in a failing chain's final year. The same
(seed, index) always gives the same bytes. The program only ever sees the
generated CSV text (or a file holding it).
"""

from __future__ import annotations

import random

HEADER = ("chain,year,fail,revenue,cost_of_revenue,sga,ebitda,stores,"
          "us_interest_rate,us_inflation_rate,long_term_debt,pandemic,acsi")

#: Predictors that ``separated_panel`` may make separate ``fail``. The three
#: final-model predictors are among them, so the Firth fit sees separation too.
SEPARATORS = ("acsi", "us_inflation_rate", "ltd_over_rev", "ebitda_over_rev",
              "stores", "us_interest_rate", "sga_over_rev")

#: Screen group of each separator, as the CLI's ``fit --group`` names it.
SEPARATOR_GROUP = {
    "acsi": "external",
    "us_inflation_rate": "external",
    "us_interest_rate": "external",
    "stores": "internal",
    "ltd_over_rev": "ratios",
    "ebitda_over_rev": "ratios",
    "sga_over_rev": "ratios",
}

# Ratio predictor -> the raw column that is its numerator over revenue.
_NUMERATOR = {"ltd_over_rev": "long_term_debt", "ebitda_over_rev": "ebitda",
              "sga_over_rev": "sga"}


def _rng(seed: int, kind: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{kind}:{index}")


def _chain_lengths(rng: random.Random, rows: int, chains: int, max_years: int) -> list[int]:
    lengths = [rows // chains] * chains
    for i in range(rows - sum(lengths)):
        lengths[i] += 1
    for _ in range(chains * 4):
        i, j = rng.randrange(chains), rng.randrange(chains)
        if i != j and lengths[i] > 1 and lengths[j] < max_years:
            lengths[i] -= 1
            lengths[j] += 1
    return lengths


def _rows(rng: random.Random, rows: int, chains: int, max_years: int,
          fail_share: float) -> list[dict]:
    """Chain-year records with plausible financials and year-level macro data."""
    macro = {year: (round(rng.uniform(0.2, 6.0), 2), round(rng.uniform(-0.5, 9.0), 2))
             for year in range(2000, 2026)}
    out = []
    for c, length in enumerate(_chain_lengths(rng, rows, chains, max_years)):
        start = rng.randint(2000, 2025 - length)
        fails = rng.random() < fail_share
        revenue = rng.lognormvariate(9.0, 0.8)
        stores = rng.uniform(200.0, 5000.0)
        ltd_ratio = rng.uniform(0.05, 0.6)
        for k in range(length):
            year = start + k
            last = k == length - 1
            fail = int(fails and last)
            revenue *= rng.lognormvariate(0.0, 0.08)
            stores *= rng.lognormvariate(0.0, 0.05)
            ebitda_ratio = rng.gauss(0.06, 0.05) - (0.04 if fail else 0.0)
            interest, inflation = macro[year]
            out.append({
                "chain": f"Chain {c:03d}",
                "year": year,
                "fail": fail,
                "revenue": round(revenue, 2),
                "cost_of_revenue": round(revenue * rng.uniform(0.55, 0.8), 2),
                "sga": round(revenue * rng.uniform(0.15, 0.3), 2),
                "ebitda": round(revenue * ebitda_ratio, 2),
                "stores": float(max(1, round(stores))),
                "us_interest_rate": interest,
                "us_inflation_rate": inflation,
                "long_term_debt": round(revenue * ltd_ratio * rng.lognormvariate(0.0, 0.1)
                                        * (1.3 if fail else 1.0), 2),
                "pandemic": int(2020 <= year <= 2022),
                "acsi": round(min(100.0, max(0.0, rng.gauss(76.0, 3.0))), 1),
            })
    return out


def _csv(rows: list[dict]) -> str:
    fields = HEADER.split(",")
    lines = [HEADER]
    for row in rows:
        lines.append(",".join(_text(row[name]) for name in fields))
    return "\n".join(lines) + "\n"


def _text(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}".rstrip("0").rstrip(".") if value != int(value) else str(int(value))
    return str(value)


def large_panel(seed: int, index: int, rows: int = 1500, chains: int = 200) -> str:
    """About ``chains`` chains, each at most 10 contiguous years, ``rows`` in all.

    Failure carries a weak signal (lower EBITDA, higher debt in the final
    year), so every screen has a finite, unseparated maximum-likelihood fit.
    """
    return _csv(_rows(_rng(seed, "large", index), rows, chains, 10, fail_share=0.3))


def separated_panel(seed: int, index: int, rows: int = 32) -> tuple[str, str, str]:
    """A small panel in which one predictor separates ``fail``.

    Returns (csv_text, predictor, mode). ``mode`` is ``complete`` (every
    failing row lies strictly beyond every surviving row) or ``quasi`` (one
    surviving row ties the boundary failing row). The index picks the
    predictor and the mode, so any 14 consecutive indices hold each pair
    once and every seed gives the same mix of work; the seed draws the rest.
    """
    rng = _rng(seed, "separated", index)
    chains = 5
    data = _rows(rng, rows, chains, 10, fail_share=0.0)
    finals = [i for i, row in enumerate(data)
              if i + 1 == len(data) or data[i + 1]["chain"] != row["chain"]]
    for i in rng.sample(finals, rng.choice((2, 3, 4))):
        data[i]["fail"] = 1
    predictor = SEPARATORS[index % len(SEPARATORS)]
    mode = ("complete", "quasi")[index // len(SEPARATORS) % 2]
    sign = rng.choice((1.0, -1.0))
    failing = [row for row in data if row["fail"] == 1]
    surviving = [row for row in data if row["fail"] == 0]

    # Draw the predictor on a unit scale, surviving rows in [0, 1] and failing
    # rows in [1.5, 2.5] (mirrored when sign < 0), then map to column units.
    lo, span = {
        "acsi": (60.0, 10.0), "us_inflation_rate": (0.5, 2.5),
        "us_interest_rate": (0.5, 1.5), "stores": (300.0, 1500.0),
        "ltd_over_rev": (0.05, 0.2), "ebitda_over_rev": (-0.1, 0.08),
        "sga_over_rev": (0.12, 0.06),
    }[predictor]
    for group, base in ((surviving, 0.0), (failing, 1.5)):
        for row in group:
            unit = base + rng.random()
            if sign < 0:
                unit = 2.5 - unit
            value = lo + span * unit
            if predictor in _NUMERATOR:
                row[_NUMERATOR[predictor]] = round(value * row["revenue"], 2)
            elif predictor == "stores":
                row["stores"] = float(round(value))
            else:
                row[predictor] = round(value, 2)
    if mode == "quasi":
        boundary = (min if sign > 0 else max)(failing, key=lambda r: _value(r, predictor))
        tie = rng.choice(surviving)
        for name in ("revenue", _NUMERATOR.get(predictor, predictor)):
            tie[name] = boundary[name]
    return _csv(data), predictor, mode


def _value(row: dict, predictor: str) -> float:
    if predictor in _NUMERATOR:
        return row[_NUMERATOR[predictor]] / row["revenue"]
    return row[predictor]
