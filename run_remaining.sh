#!/usr/bin/env bash
# Remaining experiments after the interrupted sweep; each one builds the
# full expert database in-process (a few seconds, deterministic).
set -u
mkdir -p experiments_log
for exp in tab3_comparison fig5_synthrag_f1 ablation_rerank ablation_gnn \
           ablation_cot ablation_iterations tab2_database; do
    echo "=== running $exp ==="
    cargo run --release -p chatls-bench --bin "$exp" >"experiments_log/$exp.txt" 2>&1
    echo "    exit $? -> experiments_log/$exp.txt"
done
cargo run --release -p chatls-bench --bin make_experiments_md
echo REMAINING_DONE
