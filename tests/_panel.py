"""A seeded multi-chain panel in the canonical CSV schema, for tests that
need many more chains and rows than the embedded 32."""

import random

from retailrisk.dataset import CSV_HEADER


def panel_csv(seed: int = 7, chains: int = 220) -> str:
    """One to ten contiguous years per chain; about 40% of chains fail in
    their final year. Amounts carry 0-2 decimals, so that printed ratios hit
    many rounding cases."""
    rng = random.Random(seed)
    lines = [",".join(CSV_HEADER)]
    for c in range(chains):
        start, length = rng.randint(2000, 2016), rng.randint(1, 10)
        fails = rng.random() < 0.4
        for k in range(length):
            year = start + k
            revenue = round(rng.uniform(50.0, 40000.0), rng.choice((0, 1, 2)))
            fields = (
                f"Chain {c:03d}", year, int(fails and k == length - 1), revenue,
                round(revenue * rng.uniform(0.5, 0.9), 2),
                round(revenue * rng.uniform(0.1, 0.4), 2),
                round(revenue * rng.uniform(-0.3, 0.2), rng.choice((0, 2))),
                rng.randint(1, 5000),
                round(rng.uniform(0.0, 6.0), 1),
                round(rng.uniform(-1.0, 9.0), 2),
                round(revenue * rng.uniform(0.0, 1.5), 1),
                int(year >= 2020),
                round(rng.uniform(60.0, 90.0), rng.choice((0, 1))),
            )
            lines.append(",".join(map(str, fields)))
    return "\n".join(lines) + "\n"
