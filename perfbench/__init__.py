"""End-to-end and per-layer benchmark of the repro workflows (see README.md)."""

#: The eight paper figures of the registry, in render order.
PAPER_FIGURES = (
    "fig1_hpl",
    "fig2_normalization",
    "fig3_significance",
    "fig4_quantreg",
    "fig5_reduce",
    "fig6_rank_variation",
    "fig7ab_bounds",
    "fig7c_distribution",
)
