"""Benchmark classical fusion rules against the Choquet integral.

Uses the embedded synthetic set: 30 genuine (client) and 30 impostor
3-modality score vectors.  Classical rules are evaluated at the fixed
threshold 0.5; the Choquet row uses the known good densities and reports
its best operating point from a full threshold sweep.
"""

from choqfuse import (
    FusionRule,
    LambdaMeasure,
    choquet_fuse_batch,
    evaluate_scores,
    rule_fuse_batch,
    synthetic_dataset,
)

data = synthetic_dataset()
C, I = data.client_scores, data.impostor_scores

print(f"{'rule':15s} {'error rate':>10s}")
for j in range(data.n_modalities):
    rate = evaluate_scores(C[:, j], I[:, j]).error_rate_at(0.5)
    print(f"{'modality ' + str(j + 1):15s} {100 * rate:9.2f}%")

for tag in ("and", "or", "prod", "mean", "min", "max", "majority_vote"):
    rule = FusionRule(tag)
    report = evaluate_scores(rule_fuse_batch(C, rule), rule_fuse_batch(I, rule))
    rate = report.error_rate_at(0.5)
    print(f"{tag:15s} {100 * rate:9.2f}%")

measure = LambdaMeasure((0.411, 0.547, 0.362))
report = evaluate_scores(choquet_fuse_batch(C, measure), choquet_fuse_batch(I, measure))
rate, threshold = report.min_error_rate()
print(f"{'choquet':15s} {100 * rate:9.2f}%   (best threshold {threshold:.4f}, "
      f"EER {report.eer:.4f})")
