// Benchmark-side replay of Trainer::train's step loop, for the per-step
// time split (the paper's Fig. 6, measured instead of modeled). It grows
// trees exactly as the trainer's single-shard vertex-by-vertex path does,
// but calls the public step kernels itself -- build_histogram_parallel
// (step 1), SplitFinder::find_best (step 2), partition_to (step 3) and the
// blocked traverse_block kernel (step 5) -- each inside its own span
// ("gbdt.step1_hist", ...), all under one "gbdt.replay" span. The replay
// is only trusted when its model is bit-identical to Trainer::train's.
#pragma once

#include "gbdt/binning.h"
#include "gbdt/trainer.h"

namespace perfbench {

/// Requires a cold start (no init_model), one shard, vertex-by-vertex
/// growth and no early stopping -- the configuration every workload uses.
booster::gbdt::Model replay_train(const booster::gbdt::TrainerConfig& cfg,
                                  const booster::gbdt::BinnedDataset& data);

}  // namespace perfbench
