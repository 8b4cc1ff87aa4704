"""Per-layer metrics from the tracer's statistics, and which end-to-end
metric each layer metric should move on which workload. BENCHMARK.json
holds the names, units and bounds of the metrics a run reports."""

# (layer metrics, end-to-end metrics they should move, workload where)
LAYER_MAP = [
    ("expr.differentiate.*, expr.substitute.*, expr.construct.self_s",
     "unit_p50_s, unit_tail_s, units_per_s",
     "corpus-sweep (also symbolic-academic, not in BENCHMARK.json)"),
    ("expr.evaluate.*, numeric.eval_matrix.*", "units_per_s",
     "implicit-vtol (also corpus-sweep probes and verify)"),
    ("expr.F_tree_nodes, expr.F_dag_nodes, expr.tower_tree_nodes, "
     "solve.solution_tree_nodes", "unit_p50_s, peak_rss_mb",
     "corpus-sweep (also symbolic-academic)"),
    ("solve.solve_equations.*", "unit_p50_s", "corpus-sweep (also symbolic-academic)"),
    ("numeric.newton_solve.*, numeric.newton.*", "units_per_s", "implicit-vtol"),
    ("numeric.probe_rank.*, numeric.depends_on.*, "
     "numeric.verify_parameterization.*, numeric.simulate.*", "units_per_s",
     "corpus-sweep (probes), implicit-vtol (verify)"),
    ("model.shift.*, model.invert_extension.*, model.choose_extension.*, "
     "model.validate.*", "unit_p50_s", "corpus-sweep"),
    ("analysis.*, analysis.permutations_tried, analysis.permutation_accept_ratio",
     "unit_p50_s, unit_tail_s", "corpus-sweep"),
    ("extension.build_combined.*, extension.certify_linearizing.*", "unit_p50_s",
     "corpus-sweep (small today)"),
    ("sysfile.loads_system.*, sysfile.print_system.*", "setup_s", "all"),
    ("expr.differentiate.cache_hit_ratio, expr.differentiate.cache_entries",
     "unit_p50_s, peak_rss_mb", "corpus-sweep"),
]


def layer_metrics(stats: dict, f_tree: list, slowdown: float) -> dict:
    """The tracer's statistics plus the ratios and extremes derived from them."""
    def ratio(num, den):
        return stats.get(num, 0) / stats[den] if stats.get(den) else 0.0

    trials = (stats.get("numeric.newton.residual_evals", 0)
              - stats.get("numeric.newton.iterations", 0)
              - stats.get("numeric.newton_solve.calls", 0))
    return {
        **stats,
        "expr.differentiate.cache_hit_ratio":
            ratio("expr.differentiate.cache_hits", "expr.differentiate.cache_lookups"),
        "expr.F_tree_nodes.min": min(f_tree, default=0),
        "expr.F_tree_nodes.max": max(f_tree, default=0),
        # accepted damped steps (one per Jacobian) over trial steps
        "numeric.newton.step_accept_ratio":
            stats.get("numeric.newton.iterations", 0) / trials if trials > 0 else 0.0,
        "analysis.permutation_accept_ratio":
            ratio("analysis.permutations_accepted", "analysis.permutations_tried"),
        "verdict.fail_ratio": ratio("verdict.failed", "verdict.attempted"),
        "trace.slowdown": slowdown,
    }
