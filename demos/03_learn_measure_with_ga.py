"""Learn the measure densities from labeled scores with the GA.

Fitness is the equal error rate of Choquet-fused scores, minimized over
the density cube.  The run is fully reproducible from the seed; rerun
with another seed to watch a different trajectory reach the same error
floor.
"""

from choqfuse import (
    GaConfig,
    LambdaMeasure,
    choquet_fuse_batch,
    evaluate_scores,
    evolve,
    synthetic_dataset,
)

data = synthetic_dataset()
cfg = GaConfig(population_size=30, max_generations=250, rng_seed=42)
best, history = evolve(data, cfg)

print("generation | best EER")
step = max(1, len(history) // 12)
for record in history[::step]:
    print(f"{record.generation:10d} | {record.eer:.4f}")
if best.generation % step:
    print(f"{best.generation:10d} | {best.eer:.4f}")

measure = LambdaMeasure(best.genes)
print()
print(f"learned densities : {tuple(round(g, 4) for g in best.genes)}")
print(f"lambda            : {measure.lam:.4f}")

report = evaluate_scores(
    choquet_fuse_batch(data.client_scores, measure),
    choquet_fuse_batch(data.impostor_scores, measure),
)
rate, threshold = report.min_error_rate()
print(f"EER               : {report.eer:.4f} at threshold {report.eer_threshold:.4f}")
print(f"best operating pt : {100 * rate:.2f}% total error at threshold {threshold:.4f}")
