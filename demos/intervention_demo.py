"""Interventional vs conditional corruption sampling, with the chi-square check.

The interventional sampler thresholds one uniform draw per position, so
whether a token is corrupted cannot depend on which token it is.  The
conditional sampler (the ablation arm) thresholds per-token empirical
frequencies instead, which is exactly the bias the intervention removes.

Run:  python3 demos/intervention_demo.py
"""
from asrnoise import (
    ConditionalPriorTable,
    independence_report,
    sample_plan_conditional,
    sample_plan_interventional,
)
from asrnoise.evaluation import INDEPENDENCE_ALPHA

token_ids = [f"word{i}" for i in range(10)]
tokens = [token_ids[i % 10] for i in range(100_000)]

# Constant prior: every position flips the same biased coin.
print("== interventional sampling, P(z) = 0.45 ==")
plan = sample_plan_interventional(tokens, p_z=0.45, seed=2024)
rate = plan.corruption_count / len(tokens)
print(f"  empirical corruption rate: {rate:.4f} (target 0.45)")

report = independence_report([plan], [tokens])
print(f"  chi-square = {report.statistic:.2f} (dof {report.dof}), p = {report.p_value:.3f}")
print(f"  verdict at alpha {INDEPENDENCE_ALPHA}: {report.verdict}")

# Now give half the tokens a 3x higher corruption frequency, the kind of
# table a specific recognizer's error profile would induce.
print("\n== conditional sampling from a 3:1 biased table ==")
table = ConditionalPriorTable(
    {t: (0.6 if i % 2 else 0.2) for i, t in enumerate(token_ids)}, default=0.4
)
cond_plan = sample_plan_conditional(tokens, table, seed=2024)
report = independence_report([cond_plan], [tokens])
print(f"  chi-square = {report.statistic:.2f} (dof {report.dof}), p = {report.p_value:.3g}")
print(f"  verdict at alpha {INDEPENDENCE_ALPHA}: {report.verdict}")
print("\n  per-token corruption rates:")
for row in report.rows:
    print(f"    {row.token:8s} rate {row.corruption_rate:.3f}  contribution {row.chi_square_contribution:8.1f}")

# Plans are pure functions of (seed, position): regrowing the sequence does
# not disturb earlier draws, which keeps sharded corpus jobs reproducible.
short = sample_plan_interventional(tokens[:10], 0.45, seed=2024)
print("\nfirst 10 indicators, n=10 plan:  ", [int(z) for z in short.z])
print("first 10 indicators, n=100k plan:", [int(z) for z in plan.z[:10]])
