// Umbrella header: the public API of the Parcae reproduction.
//
//   #include "parcae.h"
//
// pulls in everything a downstream user needs: the model zoo and
// performance models, traces and generators, the predictors, the
// liveput optimizer, the policies, and both simulators. Individual
// headers remain includable on their own; this is a convenience.
#pragma once

// Substrates.
#include "common/rng.h"                    // IWYU pragma: export
#include "common/stats.h"                  // IWYU pragma: export
#include "common/table.h"                  // IWYU pragma: export
#include "model/memory_model.h"            // IWYU pragma: export
#include "model/model_profile.h"           // IWYU pragma: export
#include "net/network_model.h"             // IWYU pragma: export
#include "parallel/parallel_config.h"      // IWYU pragma: export
#include "parallel/pipeline_schedule.h"    // IWYU pragma: export
#include "parallel/throughput_model.h"     // IWYU pragma: export
#include "trace/spot_market.h"             // IWYU pragma: export
#include "trace/spot_trace.h"              // IWYU pragma: export
#include "trace/trace_analysis.h"          // IWYU pragma: export
#include "trace/trace_io.h"                // IWYU pragma: export

// Prediction.
#include "predict/adaptive.h"              // IWYU pragma: export
#include "predict/arima.h"                 // IWYU pragma: export
#include "predict/evaluation.h"            // IWYU pragma: export
#include "predict/guards.h"                // IWYU pragma: export
#include "predict/predictor.h"             // IWYU pragma: export

// Migration and the liveput core.
#include "core/interval_dp.h"              // IWYU pragma: export
#include "core/liveput.h"                  // IWYU pragma: export
#include "core/objective.h"                // IWYU pragma: export
#include "core/scheduler_core.h"           // IWYU pragma: export
#include "core/telemetry.h"                // IWYU pragma: export
#include "migration/cost_model.h"          // IWYU pragma: export
#include "migration/planner.h"             // IWYU pragma: export
#include "migration/preemption.h"          // IWYU pragma: export

// Runtime: simulators, policies, the real agent cluster, the WAL.
#include "runtime/cloud_provider.h"        // IWYU pragma: export
#include "runtime/cluster_sim.h"           // IWYU pragma: export
#include "runtime/interval_accountant.h"   // IWYU pragma: export
#include "runtime/kv_store.h"              // IWYU pragma: export
#include "runtime/parcae_policy.h"         // IWYU pragma: export
#include "runtime/parcae_ps.h"             // IWYU pragma: export
#include "runtime/sample_manager.h"        // IWYU pragma: export
#include "runtime/spot_driver.h"           // IWYU pragma: export
#include "runtime/training_cluster.h"      // IWYU pragma: export
#include "runtime/wal.h"                   // IWYU pragma: export

// Baselines and analysis.
#include "analysis/experiment.h"           // IWYU pragma: export
#include "baselines/bamboo_policy.h"       // IWYU pragma: export
#include "baselines/checkfreq_policy.h"    // IWYU pragma: export
#include "baselines/elastic_dp_policy.h"   // IWYU pragma: export
#include "baselines/hybrid_policy.h"       // IWYU pragma: export
#include "baselines/ondemand_policy.h"     // IWYU pragma: export
#include "baselines/oobleck_policy.h"      // IWYU pragma: export
#include "baselines/varuna_policy.h"       // IWYU pragma: export
