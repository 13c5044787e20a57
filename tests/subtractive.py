"""Second evaluation strategy for the closed-form table, used as a
cross-check of ``outcome_probabilities``.

Both start from the same 16 vacuum-subset terms; this one never forms an
inclusion-exclusion sum. It builds the table in canonical order: each
pattern's own vacuum-subset term minus every previously computed pattern
whose click set is a strict subset.
"""

from hbepp_link import ChannelParams, MeasurementAngles, ProbabilityTable, SourceParams
from hbepp_link.analytic import vacuum_terms
from hbepp_link.patterns import CANONICAL_PATTERNS


def outcome_probabilities_subtractive(
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> ProbabilityTable:
    """All 16 pattern probabilities as explicit linear combinations."""
    vac = vacuum_terms(
        source.g, channel.tau1, channel.tau2, channel.dark_count, angles.relative()
    )
    by_click_mask: dict[int, float] = {}
    values = []
    for pattern in CANONICAL_PATTERNS:
        click_mask = sum(bit << i for i, bit in enumerate(pattern))
        p = vac[15 ^ click_mask]
        for prev_mask, prev_p in by_click_mask.items():
            if prev_mask & ~click_mask == 0:  # strict subset (never equal)
                p -= prev_p
        by_click_mask[click_mask] = p
        values.append(p)
    return ProbabilityTable(tuple(values))
