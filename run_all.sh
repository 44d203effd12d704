#!/bin/bash
set -u
cd "$(dirname "$0")"
for b in table1_datasets example2_noise_vs_gain fig5_overall table2_ablation fig6_threshold_m fig7_subgraph_n fig8_indicator fig9_gnn_models fig13_theta fig15_indicator_eps table3_time ablation_design; do
  echo "=== START $b $(date +%T) ==="
  cargo run --release --quiet -p privim-bench --bin $b -- --repeats 3 --json results/$b.json --telemetry-out results/$b.jsonl > results/$b.txt 2> results/$b.log
  echo "=== DONE $b $(date +%T) exit $? ==="
done
echo "=== START kernelbench $(date +%T) ==="
cargo run --release --quiet -p privim-bench --bin kernelbench -- --seed 42 --measure --repeats 5 --json results/kernelbench.json > results/kernelbench.txt 2> results/kernelbench.log
echo "=== DONE kernelbench $(date +%T) exit $? ==="
echo "=== START auditbench $(date +%T) ==="
cargo run --release --quiet -p privim-bench --bin auditbench -- --seed 42 --json results/auditbench.json > results/auditbench.txt 2> results/auditbench.log
echo "=== DONE auditbench $(date +%T) exit $? ==="
echo ALL_EXPERIMENTS_DONE
